package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestComputeProcletRunsTasks(t *testing.T) {
	s := testSystem(t)
	cp, err := NewComputeProcletOn(s, "cpu", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 4; i++ {
		cp.Run(func(tc *TaskCtx) {
			tc.Compute(10 * time.Millisecond)
			done++
		})
	}
	s.K.Spawn("waiter", func(p *sim.Proc) {
		cp.WaitIdle(p)
		// 4 tasks x 10ms on 2 workers (8 cores available) = 20ms.
		if p.Now() != 20*sim.Millisecond {
			t.Errorf("idle at %v, want 20ms", p.Now())
		}
	})
	s.K.Run()
	if done != 4 || cp.executed != 4 {
		t.Errorf("done=%d executed=%d, want 4", done, cp.executed)
	}
}

func TestComputeProcletDemand(t *testing.T) {
	s := testSystem(t)
	cp, _ := NewComputeProcletOn(s, "cpu", 0, 2)
	if cp.Demand() != 0 {
		t.Errorf("idle demand = %v, want 0", cp.Demand())
	}
	for i := 0; i < 5; i++ {
		cp.Run(func(tc *TaskCtx) { tc.Compute(time.Millisecond) })
	}
	if cp.Demand() != 2 {
		t.Errorf("busy demand = %v, want 2 (capped at workers)", cp.Demand())
	}
	s.K.Spawn("w", func(p *sim.Proc) { cp.WaitIdle(p) })
	s.K.Run()
	if cp.Demand() != 0 {
		t.Errorf("demand after drain = %v", cp.Demand())
	}
}

func TestComputeProcletMigratesMidTask(t *testing.T) {
	s := testSystem(t)
	cp, _ := NewComputeProcletOn(s, "cpu", 0, 1)
	var finished sim.Time
	cp.Run(func(tc *TaskCtx) {
		tc.Compute(20 * time.Millisecond)
		finished = tc.Proc().Now()
	})
	s.K.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		s.Cluster.Machine(0).SetReserved(8)
		if err := s.Runtime.Migrate(p, cp.ID(), 1); err != nil {
			t.Fatalf("Migrate: %v", err)
		}
	})
	s.K.Run()
	if finished == 0 || finished > 21*sim.Millisecond {
		t.Errorf("task finished at %v, want ~20ms despite source stall", finished)
	}
	if cp.Location() != 1 {
		t.Errorf("location = %d, want 1", cp.Location())
	}
}

func TestPoolDispatchBalances(t *testing.T) {
	s := testSystem(t)
	pl, err := s.NewPool("pool", 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pl.Run(func(tc *TaskCtx) { tc.Compute(time.Millisecond) })
	}
	q0 := pl.members[0].queueLen() + pl.members[0].running
	q1 := pl.members[1].queueLen() + pl.members[1].running
	if q0 != 5 || q1 != 5 {
		t.Errorf("queue split %d/%d, want 5/5", q0, q1)
	}
	s.K.Spawn("w", func(p *sim.Proc) { pl.WaitIdle(p) })
	s.K.Run()
	if n := pl.members[0].executed + pl.members[1].executed; n != 10 {
		t.Errorf("executed %d, want 10", n)
	}
}

func TestPoolGrowSplitsQueue(t *testing.T) {
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 1, 0)
	ran := 0
	for i := 0; i < 8; i++ {
		pl.Run(func(tc *TaskCtx) {
			tc.Compute(time.Millisecond)
			ran++
		})
	}
	s.K.Spawn("ctl", func(p *sim.Proc) {
		grew, err := pl.Grow()
		if err != nil || !grew {
			t.Errorf("Grow = %v, %v", grew, err)
			return
		}
		if pl.Size() != 2 {
			t.Errorf("Size = %d, want 2", pl.Size())
		}
		pl.WaitIdle(p)
	})
	s.K.Run()
	if ran != 8 {
		t.Errorf("ran = %d, want 8 (no tasks lost in split)", ran)
	}
	if pl.Splits != 1 {
		t.Errorf("Splits = %d", pl.Splits)
	}
}

func TestPoolGrowRefusesWithoutIdleCPU(t *testing.T) {
	// Single machine, 2 cores, both fully reserved: splitting must not
	// create a new proclet (§3.3's guard).
	s := testSystem(t, cluster.MachineConfig{Cores: 2, MemBytes: 1 << 30})
	pl, _ := s.NewPool("pool", 1, 1, 0)
	s.Cluster.Machine(0).SetReserved(2)
	for i := 0; i < 4; i++ {
		pl.Run(func(tc *TaskCtx) { tc.Compute(time.Millisecond) })
	}
	s.K.Spawn("ctl", func(p *sim.Proc) {
		grew, err := pl.Grow()
		if err != nil {
			t.Errorf("Grow error: %v", err)
		}
		if grew {
			t.Error("Grow succeeded with zero idle CPU")
		}
		if pl.Size() != 1 {
			t.Errorf("Size = %d, want 1", pl.Size())
		}
	})
	s.K.RunUntil(10 * sim.Millisecond)
}

func TestPoolGrowRespectsMaxSize(t *testing.T) {
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 2, 2)
	s.K.Spawn("ctl", func(p *sim.Proc) {
		if grew, _ := pl.Grow(); grew {
			t.Error("Grow exceeded maxSize")
		}
	})
	s.K.Run()
}

func TestPoolShrinkMergesQueue(t *testing.T) {
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 3, 0)
	ran := 0
	for i := 0; i < 9; i++ {
		pl.Run(func(tc *TaskCtx) {
			tc.Compute(time.Millisecond)
			ran++
		})
	}
	s.K.Spawn("ctl", func(p *sim.Proc) {
		if shrank, err := pl.Shrink(); err != nil || !shrank {
			t.Errorf("Shrink = %v, %v", shrank, err)
			return
		}
		if pl.Size() != 2 {
			t.Errorf("Size = %d, want 2", pl.Size())
		}
		pl.WaitIdle(p)
	})
	s.K.Run()
	if ran != 9 {
		t.Errorf("ran = %d, want 9 (no tasks lost in merge)", ran)
	}
	if pl.Merges != 1 {
		t.Errorf("Merges = %d", pl.Merges)
	}
}

// A pool keeps at least one member.
func TestPoolShrinkRespectsMinSize(t *testing.T) {
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 1, 0)
	s.K.Spawn("ctl", func(p *sim.Proc) {
		if shrank, _ := pl.Shrink(); shrank || pl.Size() != 1 {
			t.Errorf("Shrink of a one-member pool: shrank %v, %d members left", shrank, pl.Size())
		}
	})
	s.K.Run()
}

func TestPoolSplitLatencyIsMilliseconds(t *testing.T) {
	// §3.3: splits stay fast because compute proclets are granular.
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 1, 0)
	for i := 0; i < 100; i++ {
		pl.Run(func(tc *TaskCtx) { tc.Compute(10 * time.Millisecond) })
	}
	var elapsed time.Duration
	s.K.Spawn("ctl", func(p *sim.Proc) {
		start := p.Now()
		pl.Grow()
		elapsed = p.Now().Sub(start)
		s.K.Stop()
	})
	s.K.Run()
	if elapsed > 2*time.Millisecond {
		t.Errorf("split took %v, want <= 2ms", elapsed)
	}
}

func TestPoolWorkStealing(t *testing.T) {
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 2, 0)
	// Pile all work onto member 0 directly; member 1's idle worker
	// must steal.
	done := 0
	for i := 0; i < 20; i++ {
		pl.members[0].Run(func(tc *TaskCtx) {
			tc.Compute(time.Millisecond)
			done++
		})
	}
	var elapsed time.Duration
	s.K.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		pl.WaitIdle(p)
		elapsed = p.Now().Sub(start)
	})
	s.K.Run()
	if done != 20 {
		t.Fatalf("done = %d, want 20", done)
	}
	if pl.Steals == 0 {
		t.Error("no steals recorded")
	}
	// With stealing both workers share: ~10-12ms, not 20ms.
	if elapsed > 14*time.Millisecond {
		t.Errorf("took %v, want ~10ms with stealing", elapsed)
	}
	if pl.members[1].executed < 5 {
		t.Errorf("member 1 executed %d, want a meaningful share", pl.members[1].executed)
	}
}

func TestStealRespectsMinimumBacklog(t *testing.T) {
	s := testSystem(t)
	pl, _ := s.NewPool("pool", 1, 2, 0)
	// A single task must not ping-pong between members.
	pl.members[0].Run(func(tc *TaskCtx) { tc.Compute(time.Millisecond) })
	s.K.Spawn("w", func(p *sim.Proc) { pl.WaitIdle(p) })
	s.K.Run()
	if pl.Steals != 0 {
		t.Errorf("Steals = %d for a 1-task queue, want 0", pl.Steals)
	}
}
