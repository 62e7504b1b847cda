package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// End-to-end crash recovery through the control plane: injector →
// orphaning → re-placement → rebuild.

func TestCrashRecoveryRebuildsMemoryProclet(t *testing.T) {
	s := testSystem(t)
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)

	mp, err := NewMemoryProcletOn(s, "store", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilder re-derives the contents from a durable source (here:
	// a host-side map standing in for replay).
	backup := map[uint64]int{1: 100, 2: 200}
	s.SetRebuilder(func(p *sim.Proc, m *MemoryProclet) error {
		for id, v := range backup {
			if err := m.Put(p, 1, id, v, 64); err != nil {
				return err
			}
		}
		return nil
	})

	k := s.K
	k.Spawn("driver", func(p *sim.Proc) {
		for id, v := range backup {
			if err := mp.Put(p, 1, id, v, 64); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
		in.Apply(fault.Event{Op: fault.OpCrash, A: 0})
		if mp.pr.State() != proclet.StateOrphaned {
			t.Fatalf("state after crash = %v, want orphaned", mp.pr.State())
		}
		// Give recovery time to re-place and rebuild, with invokes
		// retrying across the outage.
		v, err := mp.Get(p, 1, 1)
		if err != nil {
			t.Fatalf("get after crash: %v", err)
		}
		if v.(int) != 100 {
			t.Errorf("rebuilt value = %v, want 100", v)
		}
		if loc := mp.Location(); loc != 1 {
			t.Errorf("recovered location = %d, want 1", loc)
		}
		if mp.objs.len() != 2 {
			t.Errorf("rebuilt objects = %d, want 2", mp.objs.len())
		}
	})
	k.Run()
	if got := s.Sched.Recoveries.Value(); got != 1 {
		t.Errorf("Recoveries = %d, want 1", got)
	}
	if s.Trace.Count(obs.KindCrash) == 0 || s.Trace.Count(obs.KindRecover) == 0 {
		t.Error("expected crash and recover trace events")
	}
}

func TestCrashRecoveryRestoresComputeProclet(t *testing.T) {
	s := testSystem(t)
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)

	cp, err := NewComputeProcletOn(s, "worker", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 4; i++ {
		cp.Run(func(tc *TaskCtx) {
			tc.Compute(2 * time.Millisecond)
			done++
		})
	}
	s.K.Schedule(sim.Time(time.Millisecond), func() {
		in.Apply(fault.Event{Op: fault.OpCrash, A: 0})
	})
	s.K.Spawn("waiter", func(p *sim.Proc) {
		cp.WaitIdle(p)
	})
	s.K.Run()
	if done != 4 {
		t.Errorf("tasks completed = %d, want 4 (compute resumes after re-placement)", done)
	}
	if loc := cp.Location(); loc != 1 {
		t.Errorf("recovered location = %d, want 1", loc)
	}
}

func TestRecoveryShedsWhenNoCapacity(t *testing.T) {
	s := testSystem(t, cluster.MachineConfig{Cores: 2, MemBytes: 1 << 20})
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)
	mp, err := NewMemoryProcletOn(s, "store", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		in.Apply(fault.Event{Op: fault.OpCrash, A: 0})
	})
	s.K.Run()
	if mp.pr.State() != proclet.StateDead {
		t.Errorf("state = %v, want dead (shed: only machine crashed)", mp.pr.State())
	}
	if got := s.Sched.Sheds.Value(); got != 1 {
		t.Errorf("Sheds = %d, want 1", got)
	}
}

func TestRestartedMachineWinsPlacementsAgain(t *testing.T) {
	s := testSystem(t)
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)
	s.K.Spawn("driver", func(p *sim.Proc) {
		in.Apply(fault.Event{Op: fault.OpCrash, A: 1})
		if m, err := s.Sched.PlaceMemory(1024); err != nil || m != 0 {
			t.Errorf("PlaceMemory during outage = %d, %v, want 0", m, err)
		}
		in.Apply(fault.Event{Op: fault.OpRestart, A: 1})
		// Machine 1 is back, empty — most free memory again once machine 0
		// holds anything.
		if err := s.Cluster.Machine(0).AllocMem(1 << 20); err != nil {
			t.Fatal(err)
		}
		if m, err := s.Sched.PlaceMemory(1024); err != nil || m != 1 {
			t.Errorf("PlaceMemory after restart = %d, %v, want 1", m, err)
		}
	})
	s.K.Run()
	if errs := s.Cluster.Machine(1).Down(); errs {
		t.Error("machine 1 still down after restart")
	}
}
