package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// callStep is the simulation as one event left it, for a proclet that
// alternates calls and compute.
type callStep struct {
	now             sim.Time
	blocked, live   int
	runnable        [3]int
	running, queued int
	counted, failed int
	loc, targetLoc  cluster.MachineID
}

// runCaller is abl-locality in small: on three machines, a one-worker
// compute proclet on machine 0 reads from a proclet on machine 1 and
// computes 20 µs on each reply, over and over, either with RunCall and
// RunCompute or with one blocking task per op that invokes and computes.
// The target's tenth invocation spawns disturb, so it runs while that
// call's reply is on the wire. Stepped event by event for 30 ms.
func runCaller(t *testing.T, staged bool, disturb func(s *System, in *fault.Injector, p *sim.Proc, cp *ComputeProclet, target proclet.ID)) (steps []callStep, trace []string) {
	t.Helper()
	s := testSystem(t, cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30},
		cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30}, cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30})
	defer s.Close()
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)
	cp, err := NewComputeProcletOn(s, "reader", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	target, err := s.Runtime.Spawn("data", 1, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	handleFast(target, "get", func(arg proclet.Msg) (proclet.Msg, error) {
		if calls++; calls == 10 {
			s.K.Spawn("ctl", func(p *sim.Proc) { disturb(s, in, p, cp, target.ID()) })
		}
		return proclet.Msg{Word: arg.Word, Bytes: 64}, nil
	})
	const work = 20 * time.Microsecond
	arg := proclet.Msg{Word: 7, Bytes: 8}
	counted, failed := 0, 0

	var op TaskFn
	if staged {
		var got CallFn
		op = func(tc *TaskCtx) { tc.ComputeProclet().RunCall(target.ID(), "get", arg, got) }
		got = func(tc *TaskCtx, _ proclet.Msg, err error) {
			if err != nil {
				failed++
				op(tc)
				return
			}
			tc.ComputeProclet().RunCompute(work, func(tc *TaskCtx) {
				counted++
				op(tc)
			})
		}
		op(&TaskCtx{cp: cp})
	} else {
		op = func(tc *TaskCtx) {
			cp := tc.ComputeProclet()
			if _, err := s.Runtime.Invoke(tc.Proc(), cp.Location(), cp.ID(), target.ID(), "get", arg); err != nil {
				failed++
				cp.Run(op)
				return
			}
			tc.Compute(work)
			counted++
			cp.Run(op)
		}
		cp.Run(op)
	}
	for s.K.Now() < 30*sim.Millisecond && s.K.Step() {
		steps = append(steps, callStep{
			now: s.K.Now(), blocked: s.K.Blocked(), live: s.K.Live(),
			runnable: [3]int{s.Cluster.Machine(0).Runnable(), s.Cluster.Machine(1).Runnable(), s.Cluster.Machine(2).Runnable()},
			running:  cp.running, queued: cp.queueLen(), counted: counted, failed: failed,
			loc: cp.Location(), targetLoc: target.Location(),
		})
	}
	return steps, s.Trace.Lines()
}

// TestRunCallMatchesBlockingTaskStepForStep: a RunCall whose continuation
// enqueues a RunCompute, and the blocking task that invokes and then
// computes, leave the simulation in the same state after every single
// event — clock, Blocked, Live, all three machines' run queues, the
// proclet's queue and running count, the ops done and failed, where the
// caller and the target are — and write the same control-plane log, with
// both left alone, the caller migrated mid-call (its later calls are
// local), the target migrated mid-call (later calls chase it), or the
// caller's machine crashed mid-call and the caller restored elsewhere.
func TestRunCallMatchesBlockingTaskStepForStep(t *testing.T) {
	for _, tc := range []struct {
		name       string
		disturb    func(s *System, in *fault.Injector, p *sim.Proc, cp *ComputeProclet, target proclet.ID)
		moved      func(last callStep) bool
		wantFailed bool
	}{
		{"calm", func(*System, *fault.Injector, *sim.Proc, *ComputeProclet, proclet.ID) {},
			func(last callStep) bool { return last.loc == 0 && last.targetLoc == 1 }, false},
		{"caller migrates", func(s *System, _ *fault.Injector, p *sim.Proc, cp *ComputeProclet, _ proclet.ID) {
			if err := s.Runtime.Migrate(p, cp.ID(), 1); err != nil {
				t.Errorf("Migrate: %v", err)
			}
		}, func(last callStep) bool { return last.loc == 1 && last.targetLoc == 1 }, false},
		{"target migrates", func(s *System, _ *fault.Injector, p *sim.Proc, _ *ComputeProclet, target proclet.ID) {
			if err := s.Runtime.Migrate(p, target, 2); err != nil {
				t.Errorf("Migrate: %v", err)
			}
		}, func(last callStep) bool { return last.loc == 0 && last.targetLoc == 2 }, false},
		{"crash+restore", func(_ *System, in *fault.Injector, _ *sim.Proc, _ *ComputeProclet, _ proclet.ID) {
			in.Apply(fault.Event{Op: fault.OpCrash, A: 0})
		}, func(last callStep) bool { return last.loc != 0 && last.targetLoc == 1 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantTrace := runCaller(t, false, tc.disturb)
			got, gotTrace := runCaller(t, true, tc.disturb)
			for i := 0; i < min(len(got), len(want)); i++ {
				if got[i] != want[i] {
					t.Fatalf("after event %d: RunCall %+v, blocking task %+v", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("RunCall ran %d events, the blocking task %d", len(got), len(want))
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Fatalf("control-plane logs differ\nRunCall:  %v\nblocking: %v", gotTrace, wantTrace)
			}
			last := want[len(want)-1]
			// About a thousand ops in 30 ms when calm; the crash costs
			// the exhausted retries of the call it caught.
			if last.counted < 250 {
				t.Errorf("%d ops in 30 ms; the chain stalled", last.counted)
			}
			if !tc.moved(last) {
				t.Errorf("the caller ended on machine %d and the target on %d: the case does not test what it says", last.loc, last.targetLoc)
			}
			if (last.failed > 0) != tc.wantFailed {
				t.Errorf("%d calls failed", last.failed)
			}
		})
	}
}

// handleFast gives pr a method table of one fast method: a
// proclet.Methods that one proclet uses.
func handleFast(pr *proclet.Proclet, method string, fn func(arg proclet.Msg) (proclet.Msg, error)) {
	var m proclet.Methods
	m.HandleFast(method, func(_ *proclet.Proclet, arg proclet.Msg) (proclet.Msg, error) { return fn(arg) })
	pr.UseMethods(&m)
}

// goid returns the id of the goroutine it runs on: the host's for kernel
// context, a process's own for code that process runs.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestRunCallResumesForLocalBlockingMethodOnly: a call that reaches a
// blocking method on the caller's own machine hands the worker's process
// that method, and the continuation after it, once; everything else about
// that call, and the next call to a fast method, runs in kernel context.
func TestRunCallResumesForLocalBlockingMethodOnly(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	cp, err := NewComputeProcletOn(s, "caller", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.Runtime.Spawn("local", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var where []string
	note := func(what string) { where = append(where, what+"@"+goid()) }
	handleFast(pr, "f", func(proclet.Msg) (proclet.Msg, error) {
		note("fast")
		return proclet.Msg{Word: 2}, nil
	})
	pr.Handle("m", func(ctx *proclet.Ctx, _ proclet.Msg) (proclet.Msg, error) {
		note("blocking")
		ctx.Proc.Sleep(10 * time.Microsecond)
		note("woke")
		return proclet.Msg{Word: 1}, nil
	})
	cp.RunCall(pr.ID(), "m", proclet.Msg{}, func(_ *TaskCtx, res proclet.Msg, err error) {
		note(fmt.Sprintf("then(%d, %v)", res.Word, err))
		cp.RunCall(pr.ID(), "f", proclet.Msg{}, func(_ *TaskCtx, res proclet.Msg, err error) {
			note(fmt.Sprintf("then(%d, %v)", res.Word, err))
		})
	})
	host := goid()
	s.K.Run()
	var proc string
	for _, w := range where {
		if g := w[strings.LastIndexByte(w, '@')+1:]; g != host {
			proc = g
			break
		}
	}
	if proc == "" {
		t.Fatalf("nothing ran on a process: %v", where)
	}
	want := []string{"blocking@" + proc, "woke@" + proc, "then(1, <nil>)@" + proc,
		"fast@" + host, "then(2, <nil>)@" + host}
	if !reflect.DeepEqual(where, want) {
		t.Errorf("ran\n %v\nwant\n %v", where, want)
	}
}

// TestRunCallThenMustNotBlock: then runs in kernel context, so a blocking
// call from it hits the park guard and names the worker.
func TestRunCallThenMustNotBlock(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	cp, err := NewComputeProcletOn(s, "cpu", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.Runtime.Spawn("data", 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	handleFast(pr, "f", func(proclet.Msg) (proclet.Msg, error) { return proclet.Msg{}, nil })
	cp.RunCall(pr.ID(), "f", proclet.Msg{}, func(tc *TaskCtx, _ proclet.Msg, _ error) { tc.Compute(time.Microsecond) })
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "outside its own context") || !strings.Contains(msg, "cpu/worker-1") {
			t.Fatalf("unexpected panic message: %v", msg)
		}
	}()
	s.K.Run()
	t.Fatal("a blocking then ran to completion")
}

// TestRunCallSteadyStateAllocatesNothing: a chain of remote RunCalls and
// RunComputes is pushes, pops and recycled records only.
func TestRunCallSteadyStateAllocatesNothing(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	cp, err := NewComputeProcletOn(s, "reader", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := s.Runtime.Spawn("data", 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	handleFast(pr, "get", func(arg proclet.Msg) (proclet.Msg, error) { return proclet.Msg{Word: arg.Word, Bytes: 64}, nil })
	ops := 0
	var got CallFn
	var op TaskFn
	op = func(*TaskCtx) { cp.RunCall(pr.ID(), "get", proclet.Msg{Word: 1, Bytes: 8}, got) }
	got = func(_ *TaskCtx, _ proclet.Msg, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		ops++
		cp.RunCompute(5*time.Microsecond, op)
	}
	op(nil)
	s.K.RunUntil(10 * sim.Millisecond) // pools and slabs at capacity
	before := ops
	if a := testing.AllocsPerRun(1000, func() { s.K.Step() }); a != 0 {
		t.Errorf("a step of the call chain allocates %v objects, want 0", a)
	}
	if ops == before {
		t.Error("no call completed while allocations were counted")
	}
}
