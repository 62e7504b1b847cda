package dtp

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/sim"
)

func testSys(t *testing.T) *core.System {
	t.Helper()
	return core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 1 << 30},
		{Cores: 8, MemBytes: 1 << 30},
	})
}

func TestForEachVecVisitsAll(t *testing.T) {
	s := testSys(t)
	pool, err := s.NewPool("pool", 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sharded.NewVector[int](s, "vec", sharded.Options{MaxShardBytes: 16 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			v.PushBack(p, 0, i, 256)
		}
		seen := make([]bool, 100)
		err := ForEachVec(p, pool, v, 10, func(tc *core.TaskCtx, idx uint64, val int) {
			tc.Compute(50 * time.Microsecond)
			if val != int(idx) {
				t.Errorf("element %d = %d", idx, val)
			}
			seen[idx] = true
		})
		if err != nil {
			t.Fatalf("ForEachVec: %v", err)
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("element %d not visited", i)
			}
		}
	})
	s.K.Run()
}

func TestForEachVecParallelSpeedup(t *testing.T) {
	// 64 elements x 1ms compute on 8 cores should take ~8ms, not 64ms.
	s := testSys(t)
	pool, _ := s.NewPool("pool", 4, 2, 0)
	v, _ := sharded.NewVector[int](s, "vec", sharded.Options{MaxShardBytes: 1 << 20})
	var elapsed time.Duration
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			v.PushBack(p, 0, i, 64)
		}
		start := p.Now()
		ForEachVec(p, pool, v, 8, func(tc *core.TaskCtx, idx uint64, val int) {
			tc.Compute(time.Millisecond)
		})
		elapsed = p.Now().Sub(start)
	})
	s.K.Run()
	if elapsed > 15*time.Millisecond {
		t.Errorf("ForEachVec took %v, want ~8ms with 8-way parallelism", elapsed)
	}
	if elapsed < 8*time.Millisecond {
		t.Errorf("ForEachVec took %v, faster than physically possible", elapsed)
	}
}

func TestMapVecOrder(t *testing.T) {
	s := testSys(t)
	pool, _ := s.NewPool("pool", 2, 2, 0)
	v, _ := sharded.NewVector[int](s, "vec", sharded.Options{MaxShardBytes: 8 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			v.PushBack(p, 0, i, 128)
		}
		out, err := mapVec(p, pool, v, 7, func(tc *core.TaskCtx, idx uint64, val int) int {
			tc.Compute(10 * time.Microsecond)
			return val * val
		})
		if err != nil {
			t.Fatalf("mapVec: %v", err)
		}
		for i, r := range out {
			if r != i*i {
				t.Errorf("out[%d] = %d, want %d", i, r, i*i)
			}
		}
	})
	s.K.Run()
}

func TestReduceVec(t *testing.T) {
	s := testSys(t)
	pool, _ := s.NewPool("pool", 2, 2, 0)
	v, _ := sharded.NewVector[int](s, "vec", sharded.Options{MaxShardBytes: 8 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		want := 0
		for i := 1; i <= 50; i++ {
			v.PushBack(p, 0, i, 64)
			want += i
		}
		got, err := ReduceVec(p, pool, v, 10,
			func(tc *core.TaskCtx, val int) int { return val },
			func(a, b int) int { return a + b }, 0)
		if err != nil {
			t.Fatalf("ReduceVec: %v", err)
		}
		if got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
	})
	s.K.Run()
}

func TestTargetScalerTracksTarget(t *testing.T) {
	s := testSys(t)
	pool, _ := s.NewPool("producers", 1, 4, 16)
	target := 4
	ts := NewTargetScaler(pool, func() int { return target })
	s.Sched.RegisterAdaptive(ts)
	s.Start()
	if pool.Size() != 4 {
		t.Errorf("Size = %d, want 4", pool.Size())
	}
	// Keep members fed so splits have queues to divide.
	var produce core.TaskFn
	produce = func(tc *core.TaskCtx) {
		tc.Compute(100 * time.Microsecond)
		tc.ComputeProclet().Run(produce)
	}
	for i := 0; i < 32; i++ {
		pool.Run(produce)
	}
	s.K.RunUntil(5 * sim.Millisecond)
	target = 10
	s.K.RunUntil(30 * sim.Millisecond)
	if pool.Size() != 10 {
		t.Errorf("Size = %d after grow target, want 10", pool.Size())
	}
	if ts.Grows == 0 {
		t.Error("no grows recorded")
	}
	target = 3
	s.K.RunUntil(60 * sim.Millisecond)
	if pool.Size() != 3 {
		t.Errorf("Size = %d after shrink target, want 3", pool.Size())
	}
	if ts.Shrinks == 0 {
		t.Error("no shrinks recorded")
	}
}

func TestThreadPoolWaitIdle(t *testing.T) {
	s := testSys(t)
	pool, _ := s.NewPool("pool", 1, 2, 0)
	ran := 0
	for i := 0; i < 4; i++ {
		pool.Run(func(tc *core.TaskCtx) {
			tc.Compute(time.Millisecond)
			ran++
		})
	}
	s.K.Spawn("w", func(p *sim.Proc) {
		pool.WaitIdle(p)
		if ran != 4 {
			t.Errorf("WaitIdle returned with %d/4 done", ran)
		}
	})
	s.K.Run()
}
