package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// spawnWaitingFn is how a process that starts by waiting comes to exist:
// SpawnLazy with the wait as the body's first statement, or SpawnPolled.
type spawnWaitingFn func(k *Kernel, nameFn func() string, d time.Duration, idle func() bool, fn func(p *Proc)) *Proc

func spawnLazyThenWait(k *Kernel, nameFn func() string, d time.Duration, idle func() bool, fn func(p *Proc)) *Proc {
	return k.SpawnLazy(nameFn, func(p *Proc) {
		p.SleepWhile(d, idle)
		fn(p)
	})
}

// polledMixRun is what one run of the random daemon program produced.
type polledMixRun struct {
	pollMixRun
	pids         []int64
	spun         bool // daemon 0 waited with period 0 and was released at instant 0
	live         int
	quietWorkers uint64 // WorkersCreated before anything released a daemon
	workers      uint64
}

// runPolledMix builds a random program from seed — daemons that wait for
// their flag before a body of work-and-wait rounds, then sleepers, timed
// callbacks and ping-pong pairs that raise the flags — and runs it with
// the given way of spawning the daemons. Nothing but the daemons exists
// during the opening quiet phase, so whatever workers exist at its end
// are the daemons' own.
func runPolledMix(seed int64, spawn spawnWaitingFn) polledMixRun {
	k := NewKernel(seed)
	defer k.Close()
	rng := rand.New(rand.NewSource(seed))
	var out polledMixRun

	nDaemons := 2 + rng.Intn(6)
	flags := make([]int, nDaemons)
	periods := []time.Duration{3 * time.Microsecond, 5 * time.Microsecond, 7 * time.Microsecond, 20 * time.Microsecond}
	// Daemon 0 may wait with period 0, spinning through the same-instant
	// FIFO until the callback below releases it inside the quiet phase.
	spinFirst := rng.Intn(2) == 0
	for i := 0; i < nDaemons; i++ {
		i := i
		d := periods[rng.Intn(len(periods))]
		first := d
		if i == 0 && spinFirst {
			first = 0
		}
		rounds := rng.Intn(4)
		idle := func() bool { return flags[i] == 0 }
		p := spawn(k, func() string { return fmt.Sprintf("daemon-%d", i) }, first, idle, func(p *Proc) {
			for r := 0; ; r++ {
				out.resumes = append(out.resumes, fmt.Sprintf("daemon %d resumed at %v", i, p.Now()))
				flags[i] = 0
				p.Sleep(time.Duration(k.Rand().Intn(30)) * time.Microsecond)
				if k.Rand().Intn(2) == 0 {
					flags[k.Rand().Intn(nDaemons)]++
				}
				if r == rounds {
					return
				}
				p.SleepWhile(d, idle)
			}
		})
		out.pids = append(out.pids, p.ID)
	}
	out.spun = spinFirst
	if spinFirst {
		k.Schedule(0, func() { k.Schedule(0, func() { flags[0]++ }) })
	}

	const quiet = 2 * Microsecond // shorter than any period and any daemon's first Sleep+poll
	out.drive(k, quiet)
	out.quietWorkers = k.WorkersCreated()

	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for r := 0; r < 12; r++ {
				p.Sleep(time.Duration(1+k.Rand().Intn(40)) * time.Microsecond)
				flags[k.Rand().Intn(nDaemons)]++
			}
		})
	}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		target := rng.Intn(nDaemons)
		k.After(time.Duration(rng.Intn(400))*time.Microsecond, func() { flags[target]++ })
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		spawnPingPong(k)
	}

	// Daemons whose flag is never raised again poll forever: bound the run.
	out.drive(k, 600*Microsecond)
	out.live = k.Live()
	out.workers = k.WorkersCreated()
	return out
}

// TestSpawnPolledMatchesSpawnLazy: SpawnPolled must be event-for-event
// identical to SpawnLazy with a leading SleepWhile — same PIDs, same event
// count, same (time, seq, process) for every event, same resume instants,
// same Live and Blocked — while creating no worker for a daemon until its
// predicate flips.
func TestSpawnPolledMatchesSpawnLazy(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := runPolledMix(seed, spawnLazyThenWait)
		got := runPolledMix(seed, (*Kernel).SpawnPolled)
		if !reflect.DeepEqual(got.pids, want.pids) {
			t.Fatalf("seed %d: PIDs %v with SpawnPolled, %v with SpawnLazy", seed, got.pids, want.pids)
		}
		if got.events != want.events {
			t.Fatalf("seed %d: SpawnPolled ran %d events, SpawnLazy %d", seed, got.events, want.events)
		}
		if got.blocked != want.blocked || got.live != want.live {
			t.Fatalf("seed %d: Blocked/Live = %d/%d with SpawnPolled, %d/%d with SpawnLazy",
				seed, got.blocked, got.live, want.blocked, want.live)
		}
		if !reflect.DeepEqual(got.resumes, want.resumes) {
			t.Fatalf("seed %d: resume instants differ\nSpawnPolled: %v\nSpawnLazy:   %v", seed, got.resumes, want.resumes)
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: event %d is %+v with SpawnPolled, %+v with SpawnLazy", seed, i, got.log[i], want.log[i])
			}
		}
		if len(want.resumes) == 0 {
			t.Fatalf("seed %d: degenerate program, no daemon ever ran (%d events)", seed, len(want.log))
		}
		// Through the quiet phase SpawnLazy holds a worker per daemon and
		// SpawnPolled one for the spinning daemon released there, if any.
		released := uint64(0)
		if got.spun {
			released = 1
		}
		if want.quietWorkers != uint64(len(want.pids)) || got.quietWorkers != released {
			t.Fatalf("seed %d: after the quiet phase WorkersCreated = %d with SpawnPolled (want %d), %d with SpawnLazy (want %d)",
				seed, got.quietWorkers, released, want.quietWorkers, len(want.pids))
		}
		if got.workers > want.workers {
			t.Fatalf("seed %d: SpawnPolled created %d workers, SpawnLazy %d", seed, got.workers, want.workers)
		}
	}
}

// TestSpawnPolledOwnsNoWorkerUntilReleased pins the accounting: a polling
// process is live and blocked like any waiting process, creates a worker
// only at the poll that releases it, and is counted out of Live by Close
// if that poll never came.
func TestSpawnPolledOwnsNoWorkerUntilReleased(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	ready := make([]bool, 8)
	ran := 0
	for i := range ready {
		i := i
		k.SpawnPolled(func() string { return "daemon" }, 10*time.Microsecond,
			func() bool { return !ready[i] },
			func(p *Proc) {
				ran++
				p.Sleep(time.Hour)
			})
	}
	k.RunUntil(Millisecond)
	if k.WorkersCreated() != 0 || runtime.NumGoroutine() > before {
		t.Fatalf("polling processes hold %d workers and %d goroutines, want 0 0",
			k.WorkersCreated(), runtime.NumGoroutine()-before)
	}
	if k.Live() != 8 || k.Blocked() != 8 {
		t.Fatalf("Live=%d Blocked=%d while polling, want 8 8", k.Live(), k.Blocked())
	}
	ready[3] = true
	k.RunUntil(2 * Millisecond)
	if ran != 1 || k.WorkersCreated() != 1 {
		t.Fatalf("ran=%d WorkersCreated=%d after one release, want 1 1", ran, k.WorkersCreated())
	}
	if k.Live() != 8 || k.Blocked() != 8 {
		t.Fatalf("Live=%d Blocked=%d with one daemon asleep in its body, want 8 8", k.Live(), k.Blocked())
	}
	k.Close()
	if k.Live() != 0 || k.Blocked() != 0 || k.Pending() != 0 {
		t.Fatalf("after Close: Live=%d Blocked=%d Pending=%d, want all 0", k.Live(), k.Blocked(), k.Pending())
	}
	waitGoroutines(t, before)
}

// TestSpawnPolledIdleTickAllocatesNothing: a poll that finds a polling
// process still idle is one pop and one push, as for SleepWhile.
func TestSpawnPolledIdleTickAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	for i := 0; i < 64; i++ {
		k.SpawnPolled(func() string { return "daemon" }, time.Microsecond,
			func() bool { return true }, func(p *Proc) {})
	}
	k.RunUntil(10 * Microsecond) // queues at capacity
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("idle SpawnPolled tick allocates %v objects, want 0", a)
	}
}

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
	k.SpawnPolled(func() string { return "late" }, 5*time.Microsecond,
		func() bool { return steps < 50 },
		func(p *Proc) { p.Sleep(time.Hour) })

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
