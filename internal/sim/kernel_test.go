package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30ns", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastClamps(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.Schedule(100, func() {
		k.Schedule(50, func() { at = k.Now() }) // in the past
	})
	k.Run()
	if at != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", at)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 3*Millisecond {
		t.Errorf("woke at %v, want 3ms", wake)
	}
	if k.Live() != 0 {
		t.Errorf("Live() = %d, want 0", k.Live())
	}
}

func TestProcSleepUntil(t *testing.T) {
	k := NewKernel(1)
	var wake Time
	k.Spawn("p", func(p *Proc) {
		p.SleepUntil(7 * Millisecond)
		p.SleepUntil(2 * Millisecond) // already past: no-op
		wake = p.Now()
	})
	k.Run()
	if wake != 7*Millisecond {
		t.Errorf("woke at %v, want 7ms", wake)
	}
}

func TestMultipleProcsInterleave(t *testing.T) {
	k := NewKernel(1)
	var got []string
	for _, d := range []time.Duration{2 * time.Millisecond, time.Millisecond, 3 * time.Millisecond} {
		d := d
		k.Spawn(fmt.Sprint(d), func(p *Proc) {
			p.Sleep(d)
			got = append(got, fmt.Sprint(d))
		})
	}
	k.Run()
	want := []string{"1ms", "2ms", "3ms"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave order = %v, want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(10*Millisecond, func() { ran = true })
	k.RunUntil(5 * Millisecond)
	if ran {
		t.Fatal("future event ran early")
	}
	if k.Now() != 5*Millisecond {
		t.Errorf("Now() = %v, want 5ms", k.Now())
	}
	k.RunUntil(20 * Millisecond)
	if !ran {
		t.Fatal("event did not run")
	}
	if k.Now() != 20*Millisecond {
		t.Errorf("Now() = %v, want 20ms", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.Every(0, time.Millisecond, func() bool {
		count++
		if count == 5 {
			k.Stop()
		}
		return true
	})
	k.RunUntil(Second)
	if count != 5 {
		t.Errorf("count = %d, want 5 (Stop should halt the run)", count)
	}
}

func TestEvery(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	k.Every(2*Millisecond, 3*time.Millisecond, func() bool {
		ticks = append(ticks, k.Now())
		return len(ticks) < 4
	})
	k.Run()
	want := []Time{2 * Millisecond, 5 * Millisecond, 8 * Millisecond, 11 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestYieldRunsQueuedEventsFirst(t *testing.T) {
	k := NewKernel(1)
	var got []string
	k.Spawn("a", func(p *Proc) {
		k.Schedule(k.Now(), func() { got = append(got, "event") })
		p.Yield()
		got = append(got, "a-after-yield")
	})
	k.Run()
	if len(got) != 2 || got[0] != "event" || got[1] != "a-after-yield" {
		t.Errorf("got %v, want [event a-after-yield]", got)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("parent", func(p *Proc) {
		order = append(order, "parent-start")
		k.Spawn("child", func(c *Proc) {
			order = append(order, "child")
		})
		p.Sleep(time.Microsecond)
		order = append(order, "parent-end")
	})
	k.Run()
	want := []string{"parent-start", "child", "parent-end"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate from process")
		}
	}()
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	k.Run()
}

func TestBlockedAccounting(t *testing.T) {
	k := NewKernel(1)
	var never Cond
	k.Spawn("stuck", func(p *Proc) {
		never.Wait(p) // never signaled
	})
	k.Run()
	if k.Blocked() != 1 {
		t.Errorf("Blocked() = %d, want 1", k.Blocked())
	}
	if k.Live() != 1 {
		t.Errorf("Live() = %d, want 1", k.Live())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (trace []string, events uint64) {
		k := NewKernel(42)
		var queue []int
		var nonEmpty Cond
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprintf("producer-%d", i), func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(time.Duration(k.Rand().Intn(1000)) * time.Microsecond)
					queue = append(queue, i*100+j)
					nonEmpty.Signal()
				}
			})
		}
		k.Spawn("consumer", func(p *Proc) {
			for n := 0; n < 50; n++ {
				for len(queue) == 0 {
					nonEmpty.Wait(p)
				}
				trace = append(trace, fmt.Sprintf("%v:%d", p.Now(), queue[0]))
				queue = queue[1:]
			}
		})
		k.Run()
		return trace, k.EventsProcessed()
	}
	t1, e1 := run()
	t2, e2 := run()
	if e1 != e2 {
		t.Fatalf("event counts differ: %d vs %d", e1, e2)
	}
	if len(t1) != 50 || len(t2) != 50 {
		t.Fatalf("trace lengths: %d, %d, want 50", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds() = %v, want 1.5", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != 2*Second {
		t.Errorf("Add: got %v", tm.Add(500*time.Millisecond))
	}
	if tm.Sub(Second) != 500*time.Millisecond {
		t.Errorf("Sub: got %v", tm.Sub(Second))
	}
	if tm.String() != "1.5s" {
		t.Errorf("String() = %q", tm.String())
	}
}

// TestScheduleReservedKeepsItsPlace: an event scheduled late under a
// sequence number reserved early runs where it would have run had it
// been scheduled at the reservation — ahead of same-instant events
// scheduled in between — and a reservation never used costs nothing.
func TestScheduleReservedKeepsItsPlace(t *testing.T) {
	run := func(lazy bool) (order []uint64, events uint64) {
		k := NewKernel(1)
		defer k.Close()
		note := func(tag uint64) { order = append(order, tag) }
		k.ScheduleTagged(10*Microsecond, note, 1)
		var seq uint64
		if lazy {
			seq = k.ReserveSeq()
			_ = k.ReserveSeq() // never scheduled: must not disturb anything
		} else {
			k.ScheduleTagged(10*Microsecond, note, 2)
			k.ScheduleTagged(20*Microsecond, func(uint64) {}, 0) // fires, does nothing
		}
		k.ScheduleTagged(10*Microsecond, note, 3)
		k.Schedule(5*Microsecond, func() {
			k.ScheduleTagged(10*Microsecond, note, 4)
			if lazy {
				k.NewLane().ScheduleReserved(10*Microsecond, seq, note, 2)
			}
		})
		k.Run()
		return order, k.EventsProcessed()
	}
	eager, eagerEvents := run(false)
	lazy, lazyEvents := run(true)
	if fmt.Sprint(eager) != "[1 2 3 4]" || fmt.Sprint(lazy) != fmt.Sprint(eager) {
		t.Fatalf("order eager %v, reserved %v, want both [1 2 3 4]", eager, lazy)
	}
	if lazyEvents != eagerEvents-1 {
		t.Fatalf("%d events with the no-op timer never scheduled, %d with it: want one fewer", lazyEvents, eagerEvents)
	}
}

// TestScheduleReservedRefusesThePresent: an old sequence number cannot be
// honoured at the current instant, where later numbers may already have run.
func TestScheduleReservedRefusesThePresent(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	seq := k.ReserveSeq()
	k.RunUntil(10 * Microsecond)
	msg := mustPanic(t, func() { k.NewLane().ScheduleReserved(10*Microsecond, seq, func(uint64) {}, 0) })
	if !strings.Contains(msg, "not after now") {
		t.Fatalf("unexpected panic message: %v", msg)
	}
}

// pingPong spawns two processes on k that sleep a microsecond at a time,
// two events per simulated microsecond, and records in seen the count of
// events k had run when one of them first found ready set.
func pingPong(k *Kernel, ready *atomic.Bool, seen *uint64) {
	for _, name := range []string{"ping", "pong"} {
		k.Spawn(name, func(p *Proc) {
			for {
				p.Sleep(time.Microsecond)
				if *seen == 0 && ready.Load() {
					*seen = k.EventsProcessed()
				}
			}
		})
	}
}

// TestKernelYieldsToTheGoScheduler: a process switch is a coroutine
// handoff that never enters the Go scheduler, so at one P a runnable
// goroutine (the GC's mark worker, here one that sets a flag) would wait
// for sysmon's preemption. The loop must yield to it every yieldEvery
// events, sequentially, in a round of pollers and in each shard of a
// ParKernel at one worker.
// The bound is two yields, not one: Gosched puts the loop on the global
// run queue, and one schedule in 61 serves that queue first.
func TestKernelYieldsToTheGoScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const horizon = 20 * Millisecond // 40,000 events a kernel
	const bound = 2 * yieldEvery

	t.Run("kernel", func(t *testing.T) {
		k := NewKernel(1)
		defer k.Close()
		var ready atomic.Bool
		var seen uint64
		pingPong(k, &ready, &seen)
		go ready.Store(true)
		k.RunUntil(horizon)
		if seen == 0 || seen > bound {
			t.Fatalf("flag first seen at event %d of %d, want 1..%d", seen, k.EventsProcessed(), bound)
		}
	})

	// A round of 100 members is one Step of 100 events, and the yield
	// must come at the member that crosses a multiple, not at a round's
	// first only.
	t.Run("pollers", func(t *testing.T) {
		k := NewKernel(1)
		defer k.Close()
		var ready atomic.Bool
		var seen uint64
		k.SpawnPollers(100, time.Microsecond, func(int) string { return "poller" }, func(int) bool {
			if seen == 0 && ready.Load() {
				seen = k.EventsProcessed()
			}
			return false
		}, func(*Proc, int) {})
		go ready.Store(true)
		k.RunUntil(horizon)
		if seen == 0 || seen > bound {
			t.Fatalf("flag first seen at event %d of %d, want 1..%d", seen, k.EventsProcessed(), bound)
		}
	})

	t.Run("parkernel", func(t *testing.T) {
		pk := NewParKernel(1, 2, 10*Microsecond)
		defer pk.Close()
		var ready atomic.Bool
		seen := make([]uint64, pk.NumShards())
		for s := range seen {
			pingPong(pk.Shard(s), &ready, &seen[s])
		}
		go ready.Store(true)
		pk.RunUntil(horizon)
		for s, n := range seen {
			if n == 0 || n > bound {
				t.Fatalf("shard %d: flag first seen at event %d of %d, want 1..%d", s, n, pk.Shard(s).EventsProcessed(), bound)
			}
		}
	})
}
