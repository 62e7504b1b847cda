package cluster

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func newTestMachine(t *testing.T, cores float64, mem int64) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewMachine(k, 0, "m0", MachineConfig{Cores: cores, MemBytes: mem})
	return k, m
}

func TestExecSingleTask(t *testing.T) {
	k, m := newTestMachine(t, 4, 0)
	var done sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		m.Exec(p, 10*time.Millisecond)
		done = p.Now()
	})
	k.Run()
	if done != 10*sim.Millisecond {
		t.Errorf("single task finished at %v, want 10ms", done)
	}
}

func TestExecOneTaskCappedAtOneCore(t *testing.T) {
	// A single-threaded task cannot exploit more than one core.
	k, m := newTestMachine(t, 16, 0)
	var done sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		m.Exec(p, 8*time.Millisecond)
		done = p.Now()
	})
	k.Run()
	if done != 8*sim.Millisecond {
		t.Errorf("finished at %v, want 8ms (1-core cap)", done)
	}
}

func TestExecProcessorSharing(t *testing.T) {
	// Two tasks on one core: each runs at 0.5x, finishing at 20ms.
	k, m := newTestMachine(t, 1, 0)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("w", func(p *sim.Proc) {
			m.Exec(p, 10*time.Millisecond)
			done[i] = p.Now()
		})
	}
	k.Run()
	for i, d := range done {
		if d != 20*sim.Millisecond {
			t.Errorf("task %d finished at %v, want 20ms", i, d)
		}
	}
}

func TestExecStaggeredArrival(t *testing.T) {
	// Task A (10ms work) starts alone on 1 core; at t=5ms task B (2.5ms
	// work) arrives. They share: A has 5ms left at rate 0.5 and B 2.5ms
	// at 0.5. B finishes at 5+5=10ms; A then runs alone, finishing its
	// remaining 2.5ms by 12.5ms.
	k, m := newTestMachine(t, 1, 0)
	var doneA, doneB sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		m.Exec(p, 10*time.Millisecond)
		doneA = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		m.Exec(p, 2500*time.Microsecond)
		doneB = p.Now()
	})
	k.Run()
	if doneB != 10*sim.Millisecond {
		t.Errorf("B finished at %v, want 10ms", doneB)
	}
	if doneA != 12500*sim.Microsecond {
		t.Errorf("A finished at %v, want 12.5ms", doneA)
	}
}

func TestExecManyTasksOnManyCores(t *testing.T) {
	// 8 equal tasks on 4 cores: each gets 0.5 cores, all finish at 2x.
	k, m := newTestMachine(t, 4, 0)
	finished := 0
	var last sim.Time
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			m.Exec(p, 6*time.Millisecond)
			finished++
			last = p.Now()
		})
	}
	k.Run()
	if finished != 8 {
		t.Fatalf("finished = %d, want 8", finished)
	}
	if last != 12*sim.Millisecond {
		t.Errorf("all finished at %v, want 12ms", last)
	}
}

func TestSetReservedStallsAndResumes(t *testing.T) {
	k, m := newTestMachine(t, 2, 0)
	var done sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		m.Exec(p, 10*time.Millisecond)
		done = p.Now()
	})
	// Reserve everything during [2ms, 7ms): the task makes no progress
	// for 5ms, so it finishes at 15ms instead of 10ms.
	k.Schedule(2*sim.Millisecond, func() { m.SetReserved(2) })
	k.Schedule(7*sim.Millisecond, func() { m.SetReserved(0) })
	k.Run()
	if done != 15*sim.Millisecond {
		t.Errorf("task finished at %v, want 15ms", done)
	}
}

func TestSetReservedPartial(t *testing.T) {
	// 2 cores, 2 tasks; reserving 1 core from t=0 gives each task 0.5.
	k, m := newTestMachine(t, 2, 0)
	m.SetReserved(1)
	var done sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			m.Exec(p, 4*time.Millisecond)
			done = p.Now()
		})
	}
	k.Run()
	if done != 8*sim.Millisecond {
		t.Errorf("finished at %v, want 8ms", done)
	}
}

func TestCoreSecondsAccounting(t *testing.T) {
	k, m := newTestMachine(t, 4, 0)
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			m.Exec(p, 5*time.Millisecond)
		})
	}
	k.Run()
	want := 3 * 0.005
	if math.Abs(m.CoreSeconds-want) > 1e-9 {
		t.Errorf("CoreSeconds = %v, want %v", m.CoreSeconds, want)
	}
}

func TestPressureSignals(t *testing.T) {
	k, m := newTestMachine(t, 2, 1000)
	if m.CPUPressure() != 0 {
		t.Errorf("idle pressure = %v, want 0", m.CPUPressure())
	}
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			k.Spawn("w", func(q *sim.Proc) { m.Exec(q, time.Millisecond) })
		}
		p.Yield()
		if got := m.CPUPressure(); got != 2 {
			t.Errorf("pressure = %v, want 2 (4 tasks / 2 cores)", got)
		}
		if got := m.Utilization(); got != 1 {
			t.Errorf("utilization = %v, want 1", got)
		}
		m.SetReserved(2)
		if !math.IsInf(m.CPUPressure(), 1) {
			t.Errorf("pressure with zero capacity = %v, want +Inf", m.CPUPressure())
		}
		m.SetReserved(0)
	})
	k.Run()
}

func TestMemoryAccounting(t *testing.T) {
	_, m := newTestMachine(t, 1, 1000)
	if err := m.AllocMem(600); err != nil {
		t.Fatalf("AllocMem: %v", err)
	}
	if err := m.AllocMem(500); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("overcommit err = %v, want ErrNoMemory", err)
	}
	if m.MemUsed() != 600 || m.MemFree() != 400 {
		t.Errorf("used/free = %d/%d, want 600/400", m.MemUsed(), m.MemFree())
	}
	if m.MemPressure() != 0.6 {
		t.Errorf("MemPressure = %v, want 0.6", m.MemPressure())
	}
	m.FreeMem(600)
	if m.MemUsed() != 0 {
		t.Errorf("used = %d after free, want 0", m.MemUsed())
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, m := newTestMachine(t, 1, 1000)
	m.FreeMem(1)
}

func TestUtilizationSeries(t *testing.T) {
	k, m := newTestMachine(t, 2, 0)
	util := m.TrackUtilization()
	k.Spawn("w", func(p *sim.Proc) {
		m.Exec(p, 5*time.Millisecond)
	})
	k.Run()
	if v, ok := util.At(sim.Millisecond); !ok || v != 1 {
		t.Errorf("busy cores during run = %v,%v, want 1,true", v, ok)
	}
	if v, _ := util.At(6 * sim.Millisecond); v != 0 {
		t.Errorf("busy cores after run = %v, want 0", v)
	}
}

func TestClusterWiring(t *testing.T) {
	k := sim.NewKernel(1)
	c := New(k, simnet.DefaultConfig())
	m0 := c.AddMachine(MachineConfig{Cores: 8, MemBytes: 1 << 30})
	m1 := c.AddMachine(MachineConfig{Cores: 16, MemBytes: 2 << 30})
	if m0.ID != 0 || m1.ID != 1 {
		t.Errorf("IDs = %d,%d, want 0,1", m0.ID, m1.ID)
	}
	if c.NumMachines() != 2 {
		t.Errorf("NumMachines = %d", c.NumMachines())
	}
	if c.TotalCores() != 24 {
		t.Errorf("TotalCores = %v, want 24", c.TotalCores())
	}
	if c.TotalMem() != 3<<30 {
		t.Errorf("TotalMem = %d", c.TotalMem())
	}
	if c.Machine(1) != m1 || c.Machine(9) != nil {
		t.Error("Machine lookup broken")
	}
	if c.Node(0) == nil || c.Node(1) == nil {
		t.Error("fabric nodes missing")
	}
}

// TestMachineLookupByID: IDs are dense indexes into the machine list, and
// an ID nobody was given is nil, not a panic.
func TestMachineLookupByID(t *testing.T) {
	c := New(sim.NewKernel(1), simnet.DefaultConfig())
	if c.Machine(0) != nil {
		t.Error("Machine(0) on an empty cluster is not nil")
	}
	ms := []*Machine{
		c.AddMachine(MachineConfig{Cores: 1}),
		c.AddMachine(MachineConfig{Cores: 1}),
		c.AddMachine(MachineConfig{Cores: 1}),
	}
	for _, tc := range []struct {
		id   MachineID
		want *Machine
	}{
		{-1, nil}, {0, ms[0]}, {1, ms[1]}, {2, ms[2]}, {MachineID(len(ms)), nil}, {math.MaxInt, nil}, {math.MinInt, nil},
	} {
		if got := c.Machine(tc.id); got != tc.want {
			t.Errorf("Machine(%d) = %p, want %p", tc.id, got, tc.want)
		}
	}
}

// Property: n equal tasks of work w on c cores finish together at
// max(w, n*w/c) (within float tolerance), and conservation holds:
// consumed core-seconds equal n*w.
func TestProcessorSharingConservationProperty(t *testing.T) {
	f := func(nRaw, cRaw uint8) bool {
		n := int(nRaw%12) + 1
		c := float64(cRaw%8) + 1
		work := 4 * time.Millisecond
		k := sim.NewKernel(1)
		m := NewMachine(k, 0, "m", MachineConfig{Cores: c})
		var last sim.Time
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *sim.Proc) {
				m.Exec(p, work)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.Run()
		wantSec := math.Max(work.Seconds(), float64(n)*work.Seconds()/c)
		gotSec := last.Seconds()
		if math.Abs(gotSec-wantSec) > 1e-6 {
			return false
		}
		return math.Abs(m.CoreSeconds-float64(n)*work.Seconds()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
