package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestProcSwitchAllocatesNothing: resuming a sleeping process and taking
// control back when it sleeps again is a coroutine switch each way.
func TestProcSwitchAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	k.RunUntil(10 * Microsecond)
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("a Sleep/resume round trip allocates %v objects, want 0", a)
	}
}

// TestProcFitsItsSizeClass: a Proc is allocated per pooled worker, per
// SpawnStaged process and per SpawnPollers member let go, and with one
// Await state in place of four mechanisms' own it is 80 bytes, inside the
// 80-byte size class.
func TestProcFitsItsSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Proc{}); s > 80 {
		t.Fatalf("Proc is %d bytes, want at most 80", s)
	}
}

// TestProcPanicNamesProcessAndInstant: a panic in a body crosses the
// coroutine boundary as the kernel's own panic, out of Run, saying which
// process and when.
func TestProcPanicNamesProcessAndInstant(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		panic("bang")
	})
	msg := mustPanic(t, func() { k.Run() })
	if msg != `sim: process "boom" panicked at 5µs: bang` {
		t.Fatalf("unexpected panic message: %s", msg)
	}
	if k.Live() != 0 || k.Blocked() != 0 {
		t.Fatalf("Live=%d Blocked=%d after the panic, want 0 0", k.Live(), k.Blocked())
	}
}

// TestCloseReachesProcessesSpawnedWhileUnwinding: a deferred function run
// by Close may spawn; the new process never starts and holds nothing.
func TestCloseReachesProcessesSpawnedWhileUnwinding(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Spawn("short", func(p *Proc) {}) // ends up pooled: must not serve the spawn below
	k.Spawn("daemon", func(p *Proc) {
		defer k.Spawn("successor", func(p *Proc) { t.Error("successor ran") })
		p.Sleep(time.Hour)
	})
	k.RunUntil(Millisecond)
	k.Close()
	if k.Live() != 0 || k.Pending() != 0 {
		t.Fatalf("after Close: Live=%d Pending=%d, want 0 0", k.Live(), k.Pending())
	}
	waitGoroutines(t, before)
}

// TestKernelSteppedFromTwoHostGoroutines: host goroutines may take turns
// driving one kernel — ParKernel's pool does, window by window — so a
// coroutine created or parked under one must resume under the other. Run
// with -race: the turn handoff is the only synchronization there is.
func TestKernelSteppedFromTwoHostGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	var c Cond
	steps := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(3 * time.Microsecond)
			steps++
			c.Signal()
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for {
			c.Wait(p)
			k.Spawn("handler", func(hp *Proc) { hp.Sleep(7 * time.Microsecond) })
		}
	})
	k.SpawnPollers(1, 5*time.Microsecond, func(int) string { return "late" },
		func(int) bool { return steps >= 50 }, func(p *Proc, _ int) { p.Sleep(time.Hour) })

	const windows = 200
	turn := make(chan int) // the window to run next: the baton between the two drivers
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func() {
			for w := range turn {
				k.RunUntil(Time(w+1) * 10 * Microsecond)
				if w+1 == windows {
					close(done)
					return
				}
				turn <- w + 1
			}
		}()
	}
	turn <- 0
	<-done
	close(turn)
	if want := windows * 10 / 3; steps != want {
		t.Fatalf("ticker ran %d steps, want %d", steps, want)
	}
	k.Close() // and a third goroutine unwinds what the two left parked
	waitGoroutines(t, before)
}
