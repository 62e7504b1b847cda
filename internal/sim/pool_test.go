package sim

import (
	"strings"
	"testing"
	"time"
)

// TestSpawnReusesWorkers: sequential spawn-run-die processes must share
// one pooled worker goroutine instead of creating one each.
func TestSpawnReusesWorkers(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	ran := 0
	for i := 0; i < 100; i++ {
		k.Spawn("w", func(p *Proc) {
			p.Sleep(time.Microsecond)
			ran++
		})
		k.Run()
	}
	if ran != 100 {
		t.Fatalf("ran %d processes, want 100", ran)
	}
	if k.WorkersCreated() != 1 {
		t.Fatalf("created %d workers for sequential spawns, want 1", k.WorkersCreated())
	}
	if len(k.free) != 1 {
		t.Fatalf("PooledWorkers = %d, want 1", len(k.free))
	}
}

// TestSpawnOverlappingWorkers: concurrently-live processes need distinct
// workers, which all return to the pool once they finish.
func TestSpawnOverlappingWorkers(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	k.Run()
	if k.WorkersCreated() != 8 {
		t.Fatalf("created %d workers for 8 overlapping processes, want 8", k.WorkersCreated())
	}
	if len(k.free) != 8 {
		t.Fatalf("PooledWorkers = %d after drain, want 8", len(k.free))
	}
	// The next burst reuses all eight.
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	k.Run()
	if k.WorkersCreated() != 8 {
		t.Fatalf("created %d workers after reuse burst, want 8", k.WorkersCreated())
	}
}

// TestPanicDoesNotPoisonPool: a panic inside a pooled process must
// discard that worker, and the next Spawn must get a clean one.
func TestPanicDoesNotPoisonPool(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()

	// Prime the pool with one healthy worker.
	k.Spawn("ok", func(p *Proc) {})
	k.Run()
	if len(k.free) != 1 {
		t.Fatalf("PooledWorkers = %d, want 1", len(k.free))
	}

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected kernel panic from process panic")
			}
			if !strings.Contains(r.(string), `process "boom" panicked`) {
				t.Fatalf("unexpected panic message: %v", r)
			}
		}()
		k.Spawn("boom", func(p *Proc) { panic("bang") })
		k.Run()
	}()

	// The panicked worker must not be back on the free list.
	if len(k.free) != 0 {
		t.Fatalf("PooledWorkers = %d after panic, want 0", len(k.free))
	}

	// And the pool still works: subsequent spawns run normally on fresh
	// workers.
	ran := false
	k.Spawn("after", func(p *Proc) {
		p.Sleep(time.Microsecond)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("process spawned after panic did not run")
	}
}

// TestSpawnLazyName: the name function must not run unless the name is
// observed, and must run exactly once when it is.
func TestSpawnLazyName(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	calls := 0
	p := k.SpawnLazy(func() string { calls++; return "lazy-1" }, func(p *Proc) {})
	k.Run()
	if calls != 0 {
		t.Fatalf("nameFn ran %d times without the name being observed", calls)
	}
	if got := p.label(); got != "lazy-1" {
		t.Fatalf("Name() = %q, want %q", got, "lazy-1")
	}
	if got := p.label(); got != "lazy-1" || calls != 1 {
		t.Fatalf("second Name() = %q (calls=%d), want cached %q (1 call)", got, calls, "lazy-1")
	}
}

// TestBlockFromKernelContextPanics: blocking calls on a process from
// kernel context (an event, a fast handler) must panic with a clear
// message instead of deadlocking the kernel.
func TestBlockFromKernelContextPanics(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var victim *Proc
	victim = k.Spawn("victim", func(p *Proc) { p.Sleep(time.Second) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from blocking call in kernel context")
		}
		if !strings.Contains(r.(string), "must not block") {
			t.Fatalf("unexpected panic message: %v", r)
		}
	}()
	k.Schedule(k.Now().Add(time.Microsecond), func() {
		victim.Sleep(time.Millisecond) // not the running process: must panic
	})
	k.Run()
}

// TestCloseRetiresWorkers: Close must empty the free list; the kernel
// stays usable afterwards.
func TestCloseRetiresWorkers(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	k.Run()
	if len(k.free) != 4 {
		t.Fatalf("PooledWorkers = %d, want 4", len(k.free))
	}
	k.Close()
	if len(k.free) != 0 {
		t.Fatalf("PooledWorkers = %d after Close, want 0", len(k.free))
	}
	ran := false
	k.Spawn("again", func(p *Proc) { ran = true })
	k.Run()
	if !ran {
		t.Fatal("spawn after Close did not run")
	}
	k.Close()
}
