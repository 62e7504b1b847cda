package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTaskCancelReturnsRemaining(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	var canceled bool
	var remaining time.Duration
	var wokeAt sim.Time
	var task *Task
	k.Spawn("w", func(p *sim.Proc) {
		task = m.Submit(10 * time.Millisecond)
		canceled, remaining = task.Wait(p)
		wokeAt = p.Now()
	})
	k.Schedule(4*sim.Millisecond, func() { task.Cancel() })
	k.Run()
	if !canceled {
		t.Fatal("task not reported canceled")
	}
	if remaining != 6*time.Millisecond {
		t.Errorf("remaining = %v, want 6ms", remaining)
	}
	if wokeAt != 4*sim.Millisecond {
		t.Errorf("waiter woke at %v, want 4ms", wokeAt)
	}
}

func TestTaskCancelUnderSharing(t *testing.T) {
	// Two tasks on one core, each 10ms; cancel one at t=4ms. It ran at
	// 0.5x so 8ms remains. The survivor then speeds up to 1x.
	k, m := newTestMachine(t, 1, 0)
	var rem time.Duration
	var doneSurvivor sim.Time
	var victim *Task
	k.Spawn("victim", func(p *sim.Proc) {
		victim = m.Submit(10 * time.Millisecond)
		_, rem = victim.Wait(p)
	})
	k.Spawn("survivor", func(p *sim.Proc) {
		m.Exec(p, 10*time.Millisecond)
		doneSurvivor = p.Now()
	})
	k.Schedule(4*sim.Millisecond, func() { victim.Cancel() })
	k.Run()
	if rem != 8*time.Millisecond {
		t.Errorf("victim remaining = %v, want 8ms", rem)
	}
	// Survivor: 2ms done by t=4ms, then 8ms at full speed -> t=12ms.
	if doneSurvivor != 12*sim.Millisecond {
		t.Errorf("survivor finished at %v, want 12ms", doneSurvivor)
	}
}

func TestTaskCancelFinishedNoop(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	var task *Task
	k.Spawn("w", func(p *sim.Proc) {
		task = m.Submit(time.Millisecond)
		task.Wait(p)
	})
	k.Run()
	task.Cancel() // must not panic or corrupt state
	if task.Canceled() {
		t.Error("finished task reported canceled after late Cancel")
	}
	if m.Runnable() != 0 {
		t.Errorf("Runnable = %d, want 0", m.Runnable())
	}
}

func TestTaskWaitAfterCompletion(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	var task *Task
	k.Spawn("submitter", func(p *sim.Proc) {
		task = m.Submit(time.Millisecond)
		p.Sleep(5 * time.Millisecond)
		canceled, _ := task.Wait(p) // already done: returns immediately
		if canceled {
			t.Error("completed task reported canceled")
		}
		if p.Now() != 5*sim.Millisecond {
			t.Errorf("Wait blocked until %v", p.Now())
		}
	})
	k.Run()
}

// TestTaskDoneIsNilOnceFinished: Done names a Cond to park on only while
// the task is resident. Completed, canceled or refused by a down machine,
// the broadcast has already happened, and a caller that parked on the Cond
// anyway would never wake.
func TestTaskDoneIsNilOnceFinished(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	completed, canceled := m.Submit(time.Millisecond), m.Submit(5*time.Millisecond)
	if completed.Done() == nil || canceled.Done() == nil {
		t.Fatal("Done is nil on a resident task")
	}
	woken := 0
	k.Spawn("waiter", func(p *sim.Proc) {
		completed.Done().Wait(p)
		woken++
	})
	k.Schedule(3*sim.Millisecond, canceled.Cancel)
	k.Run()
	if woken != 1 {
		t.Errorf("the waiter on Done woke %d times, want 1", woken)
	}
	m.Crash()
	refused := m.Submit(time.Millisecond)
	for name, task := range map[string]*Task{"completed": completed, "canceled": canceled, "refused": refused} {
		if task.Done() != nil {
			t.Errorf("Done is not nil on a %s task", name)
		}
	}
}

func TestTaskCancelStalledByReservation(t *testing.T) {
	// With all cores reserved the task makes zero progress; cancel must
	// return the full work.
	k, m := newTestMachine(t, 2, 0)
	m.SetReserved(2)
	var rem time.Duration
	var task *Task
	k.Spawn("w", func(p *sim.Proc) {
		task = m.Submit(7 * time.Millisecond)
		_, rem = task.Wait(p)
	})
	k.Schedule(50*sim.Millisecond, func() { task.Cancel() })
	k.Run()
	if rem != 7*time.Millisecond {
		t.Errorf("remaining = %v, want full 7ms", rem)
	}
}

// retirement is one task leaving the machine, as its waiter saw it.
type retirement struct {
	task      int // program-level index of the Submit
	at        sim.Time
	canceled  bool
	remaining time.Duration
}

// releaseRun is what one run of the random machine program produced.
type releaseRun struct {
	retired  []retirement
	runnable []int // Runnable() after every operation
	coreSecs float64
	events   uint64
	reused   int // Submits that were handed storage seen before
}

// runReleaseMix runs a random program of Submit, Cancel, SetReserved,
// Crash and Restart against one machine. Every Submit has a waiter process
// that records the retirement; with release set, the waiter then releases
// the task — the earliest legal point — and the controller forgets the
// handle, as an owner must.
func runReleaseMix(seed int64, release bool) releaseRun {
	k := sim.NewKernel(seed)
	defer k.Close()
	m := NewMachine(k, 0, "m", MachineConfig{Cores: 4})
	rng := rand.New(rand.NewSource(seed))
	var out releaseRun
	var handles []*Task // nil once released
	seen := map[*Task]bool{}

	const horizon = 5 * time.Millisecond
	for i, n := 0, 40+rng.Intn(160); i < n; i++ {
		at := sim.Time(rng.Int63n(int64(horizon)))
		var op func()
		switch r := rng.Intn(100); {
		case r < 55:
			work := time.Duration(1+rng.Intn(500)) * time.Microsecond
			op = func() {
				idx := len(handles)
				t := m.Submit(work)
				handles = append(handles, t)
				if seen[t] {
					out.reused++
				}
				seen[t] = true
				k.Spawn("waiter", func(p *sim.Proc) {
					canceled, rem := t.Wait(p)
					out.retired = append(out.retired, retirement{idx, p.Now(), canceled, rem})
					if release {
						handles[idx] = nil
						t.Release()
					}
				})
			}
		case r < 75:
			pick := rng.Int()
			op = func() {
				if len(handles) == 0 {
					return
				}
				// Without release this also cancels finished tasks, which
				// must stay a no-op.
				if t := handles[pick%len(handles)]; t != nil {
					t.Cancel()
				}
			}
		case r < 93:
			cores := float64(rng.Intn(6)) // up to more than the machine has
			op = func() { m.SetReserved(cores) }
		case r < 96:
			op = m.Crash
		default:
			op = m.Restart
		}
		k.Schedule(at, func() {
			op()
			out.runnable = append(out.runnable, m.Runnable())
		})
	}
	k.Schedule(sim.Time(horizon), func() { m.SetReserved(0) }) // let what is left finish
	k.Run()
	out.runnable = append(out.runnable, m.Runnable())
	out.coreSecs = m.CoreSeconds
	out.events = k.EventsProcessed()
	return out
}

// TestReleaseChangesNothingButStorage: a program that releases every task
// the moment it may is indistinguishable — retirements, Runnable(),
// CoreSeconds, event count — from one that never releases, and does reuse
// storage.
func TestReleaseChangesNothingButStorage(t *testing.T) {
	reused := 0
	for seed := int64(1); seed <= 200; seed++ {
		want := runReleaseMix(seed, false)
		got := runReleaseMix(seed, true)
		if want.reused != 0 {
			t.Fatalf("seed %d: %d Submits reused storage that was never released", seed, want.reused)
		}
		reused += got.reused
		got.reused = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: run with Release differs\nwith:    %+v\nwithout: %+v", seed, got, want)
		}
		if len(want.retired) == 0 {
			t.Fatalf("seed %d: degenerate program, nothing retired", seed)
		}
	}
	if reused == 0 {
		t.Fatal("no Submit ever reused released storage")
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReleaseRefusesResidentAndReleasedTasks: the two misuses that would
// alias live storage.
func TestReleaseRefusesResidentAndReleasedTasks(t *testing.T) {
	k, m := newTestMachine(t, 1, 0)
	task := m.Submit(time.Millisecond)
	mustPanic(t, "Release of a resident task", task.Release)
	k.Run()
	task.Release()
	mustPanic(t, "second Release", task.Release)
	if again := m.Submit(time.Millisecond); again != task {
		t.Error("Submit after Release did not reuse the released storage")
	}
}

// TestExecAllocatesNothingInSteadyState: eight processes computing back to
// back, the shape of a filler proclet's workers, recycle their tasks.
func TestExecAllocatesNothingInSteadyState(t *testing.T) {
	k, m := newTestMachine(t, 4, 0)
	defer k.Close()
	for i := 0; i < 8; i++ {
		k.Spawn("worker", func(p *sim.Proc) {
			for {
				m.Exec(p, 50*time.Microsecond)
			}
		})
	}
	k.RunUntil(10 * sim.Millisecond) // queues and free list at capacity
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("a steady-state Exec step allocates %v objects, want 0", a)
	}
}
