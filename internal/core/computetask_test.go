package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
)

// unitFn is how a test enqueues "compute work, then fn": RunCompute, or
// its blocking twin, the closure RunCompute replaces.
type unitFn func(cp *ComputeProclet, work time.Duration, fn TaskFn)

func runComputeBlocking(cp *ComputeProclet, work time.Duration, fn TaskFn) {
	cp.Run(func(tc *TaskCtx) {
		tc.Compute(work)
		fn(tc)
	})
}

// fillerStep is the simulation as one event left it.
type fillerStep struct {
	now             sim.Time
	blocked, live   int
	runnable        [2]int
	running, queued int
	executed        int64
	counted         int
	loc             cluster.MachineID
}

// runFiller is fig1 in small: a two-worker compute proclet on machine 0
// kept busy by four self-replacing 50 µs units, disturbed once mid-compute,
// stepped event by event.
func runFiller(t *testing.T, enqueue unitFn, disturb func(s *System, in *fault.Injector, p *sim.Proc, cp *ComputeProclet)) (steps []fillerStep, trace []string) {
	t.Helper()
	s := testSystem(t)
	defer s.Close()
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)
	cp, err := NewComputeProcletOn(s, "filler", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	counted := 0
	var count TaskFn
	count = func(tc *TaskCtx) {
		counted++
		enqueue(tc.ComputeProclet(), 50*time.Microsecond, count)
	}
	for i := 0; i < 4; i++ {
		enqueue(cp, 50*time.Microsecond, count)
	}
	s.K.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(330 * time.Microsecond) // both workers are 30 µs into a unit
		disturb(s, in, p, cp)
	})
	for s.K.Now() < 2*sim.Millisecond && s.K.Step() {
		steps = append(steps, fillerStep{
			now: s.K.Now(), blocked: s.K.Blocked(), live: s.K.Live(),
			runnable: [2]int{s.Cluster.Machine(0).Runnable(), s.Cluster.Machine(1).Runnable()},
			running:  cp.running, queued: cp.queueLen(), executed: cp.executed, counted: counted,
			loc: cp.Location(),
		})
	}
	return steps, s.Trace.Lines()
}

// TestRunComputeMatchesBlockingTaskStepForStep: a RunCompute unit and the
// closure it replaces leave the simulation in the same state after every
// single event — clock, Blocked, Live, both machines' run queues, the
// proclet's counters — and write the same control-plane log, with the
// proclet left alone, migrated mid-compute, or crashed mid-compute and
// restored on the other machine.
func TestRunComputeMatchesBlockingTaskStepForStep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disturb func(s *System, in *fault.Injector, p *sim.Proc, cp *ComputeProclet)
		wantLoc cluster.MachineID
	}{
		{"calm", func(*System, *fault.Injector, *sim.Proc, *ComputeProclet) {}, 0},
		{"migrate", func(s *System, _ *fault.Injector, p *sim.Proc, cp *ComputeProclet) {
			if err := s.Runtime.Migrate(p, cp.ID(), 1); err != nil {
				t.Errorf("Migrate: %v", err)
			}
		}, 1},
		{"crash+restore", func(_ *System, in *fault.Injector, _ *sim.Proc, _ *ComputeProclet) {
			in.Apply(fault.Event{Op: fault.OpCrash, A: 0})
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantTrace := runFiller(t, runComputeBlocking, tc.disturb)
			got, gotTrace := runFiller(t, (*ComputeProclet).RunCompute, tc.disturb)
			if len(got) != len(want) {
				t.Fatalf("RunCompute ran %d events, the blocking task %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after event %d: RunCompute %+v, blocking task %+v", i, got[i], want[i])
				}
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Fatalf("control-plane logs differ\nRunCompute: %v\nblocking:   %v", gotTrace, wantTrace)
			}
			last := want[len(want)-1]
			// 2 ms of two workers at 50 µs a unit is 80 units; a disturbance
			// costs a few.
			if last.counted < 60 || last.counted > 80 {
				t.Errorf("%d units counted in 2 ms, want 60..80", last.counted)
			}
			if last.loc != tc.wantLoc {
				t.Errorf("the proclet ended on machine %d, want %d", last.loc, tc.wantLoc)
			}
		})
	}
}

// TestRunComputeFnMustNotBlock: fn runs in kernel context, so a blocking
// call from it hits the park guard and names the worker.
func TestRunComputeFnMustNotBlock(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	cp, err := NewComputeProcletOn(s, "cpu", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cp.RunCompute(time.Microsecond, func(tc *TaskCtx) { tc.Compute(time.Microsecond) })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "outside its own context") || !strings.Contains(msg, "cpu/worker-1") {
			t.Fatalf("unexpected panic message: %v", msg)
		}
	}()
	s.K.Run()
	t.Fatal("a blocking fn ran to completion")
}

// TestComputeTasksMoveWithTheirWork: whatever moves a queued task to
// another proclet — a split, a merge, a steal, an enqueue on a member that
// is stopping — moves a RunCompute task's work with it: every unit still
// burns its CPU, on whichever machine it ends up, before it is counted.
func TestComputeTasksMoveWithTheirWork(t *testing.T) {
	const work = 100 * time.Microsecond
	for _, tc := range []struct {
		name    string
		members int
		onFirst int // units enqueued on member 0; the rest of 24 go to member 1
		act     func(t *testing.T, p *sim.Proc, pl *Pool, count TaskFn) (extra int)
		moved   func(pl *Pool) int64
	}{
		{"Grow", 1, 24, func(t *testing.T, p *sim.Proc, pl *Pool, _ TaskFn) int {
			if grew, err := pl.Grow(); err != nil || !grew {
				t.Errorf("Grow = %v, %v", grew, err)
			}
			return 0
		}, func(pl *Pool) int64 { return pl.members[1].executed }},
		{"Shrink", 2, 12, func(t *testing.T, p *sim.Proc, pl *Pool, _ TaskFn) int {
			if shrank, err := pl.Shrink(); err != nil || !shrank {
				t.Errorf("Shrink = %v, %v", shrank, err)
			}
			return 0
		}, func(pl *Pool) int64 { return pl.members[0].executed - 12 }},
		{"stealFor", 2, 24, func(*testing.T, *sim.Proc, *Pool, TaskFn) int { return 0 },
			func(pl *Pool) int64 { return pl.Steals }},
		{"RunCompute on a stopping member", 2, 12, func(t *testing.T, p *sim.Proc, pl *Pool, count TaskFn) int {
			victim := pl.members[0]
			if shrank, err := pl.Shrink(); err != nil || !shrank {
				t.Errorf("Shrink = %v, %v", shrank, err)
			}
			p.Sleep(time.Microsecond) // the retirement has begun
			if !victim.stopping {
				t.Error("the merged member is not stopping")
			}
			before := victim.executed + int64(victim.running)
			for i := 0; i < 3; i++ {
				victim.RunCompute(work, count)
			}
			if victim.queueLen() != 0 || victim.executed+int64(victim.running) != before {
				t.Error("a stopping member kept a task enqueued on it")
			}
			return 3
		}, func(pl *Pool) int64 { return pl.Merges }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSystem(t)
			defer s.Close()
			pl, err := s.NewPool("pool", 1, tc.members, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			counted, want := 0, 24
			count := func(*TaskCtx) { counted++ }
			for i := 0; i < 24; i++ {
				m := pl.members[0]
				if i >= tc.onFirst {
					m = pl.members[1]
				}
				m.RunCompute(work, count)
			}
			s.K.Spawn("ctl", func(p *sim.Proc) { want += tc.act(t, p, pl, count) })
			s.K.Run()
			var burnt float64
			for _, m := range s.Cluster.Machines() {
				burnt += m.CoreSeconds
			}
			if got := int(math.Round(burnt / work.Seconds())); counted != want || got != want {
				t.Errorf("%d units counted, %d units' worth of CPU burnt; want %d and %d", counted, got, want, want)
			}
			if tc.moved(pl) <= 0 {
				t.Errorf("nothing moved: the case does not test what it says")
			}
		})
	}
}

// TestSelfReplacingUnitsKeepTheQueueSmall: a proclet fed by units that
// re-enqueue themselves never drains its queue, and the queue's storage
// stays proportional to the live entries all the same.
func TestSelfReplacingUnitsKeepTheQueueSmall(t *testing.T) {
	const workers, units = 4, 100_000
	s := testSystem(t)
	defer s.Close()
	cp, err := NewComputeProcletOn(s, "filler", 0, workers)
	if err != nil {
		t.Fatal(err)
	}
	left := units
	var next TaskFn
	next = func(tc *TaskCtx) {
		if left--; left > 0 {
			tc.ComputeProclet().RunCompute(time.Microsecond, next)
		}
	}
	for i := 0; i < 2*workers; i++ {
		cp.RunCompute(time.Microsecond, next)
	}
	peak := 0
	for s.K.Step() {
		peak = max(peak, cap(cp.queue))
	}
	if cp.executed < units {
		t.Fatalf("%d units executed, want at least %d", cp.executed, units)
	}
	if limit := 4 * (queueSlack + 2*workers); peak > limit {
		t.Errorf("the queue grew to %d entries for %d live units; want at most %d", peak, 2*workers, limit)
	}
}

// TestComputeTaskSteadyStateAllocatesNothing: a RunCompute unit that
// re-enqueues itself is pushes, pops and recycled tasks only.
func TestComputeTaskSteadyStateAllocatesNothing(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	cp, err := NewComputeProcletOn(s, "filler", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var next TaskFn
	next = func(tc *TaskCtx) { tc.ComputeProclet().RunCompute(50*time.Microsecond, next) }
	for i := 0; i < 4; i++ {
		cp.RunCompute(50*time.Microsecond, next)
	}
	s.K.RunUntil(10 * sim.Millisecond) // queues and slabs at capacity
	before := cp.executed
	if a := testing.AllocsPerRun(1000, func() { s.K.Step() }); a != 0 {
		t.Errorf("a step of the filler allocates %v objects, want 0", a)
	}
	if cp.executed == before {
		t.Error("no unit completed while allocations were counted")
	}
}
