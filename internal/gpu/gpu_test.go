package gpu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// testSys builds 2 machines x 2 GPUs with simple numbers: 16 GB/s host
// links, 8 GiB device memory.
func testSys(t *testing.T) *core.System {
	t.Helper()
	s := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	for _, m := range s.Cluster.Machines() {
		m.AddGPUs(cluster.GPUConfig{Count: 2, MemBytes: 8 << 30, LinkBandwidth: 16_000_000_000})
	}
	return s
}

func TestGPUDeviceModel(t *testing.T) {
	s := testSys(t)
	g := s.Cluster.Machine(0).GPU(0)
	if g == nil || len(s.Cluster.Machine(0).GPUs()) != 2 {
		t.Fatal("GPUs not attached")
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		// Two kernels serialize on the device.
		done := make([]sim.Time, 0, 2)
		var wg sim.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			s.K.Spawn("k", func(q *sim.Proc) {
				g.ExecKernel(q, 5*time.Millisecond)
				done = append(done, q.Now())
				wg.Done()
			})
		}
		wg.Wait(p)
		if done[0] != 5*sim.Millisecond || done[1] != 10*sim.Millisecond {
			t.Errorf("kernel completions = %v, want serialized 5ms/10ms", done)
		}
		// Upload: 160 MB at 16 GB/s = 10 ms.
		start := p.Now()
		g.Upload(p, 160_000_000)
		if got := p.Now().Sub(start); got != 10*time.Millisecond {
			t.Errorf("upload took %v, want 10ms", got)
		}
	})
	s.K.Run()
	if g.KernelSeconds != 0.010 {
		t.Errorf("KernelSeconds = %v, want 0.010", g.KernelSeconds)
	}
}

func TestGPUMemAccounting(t *testing.T) {
	s := testSys(t)
	g := s.Cluster.Machine(0).GPU(0)
	if err := g.AllocMem(6 << 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AllocMem(3 << 30); !errors.Is(err, cluster.ErrNoMemory) {
		t.Errorf("overcommit err = %v", err)
	}
	g.FreeMem(6 << 30)
	if g.MemFree() != 8<<30 {
		t.Errorf("MemFree = %d, want all 8 GiB", g.MemFree())
	}
}

func TestProcletStepCosts(t *testing.T) {
	s := testSys(t)
	g := s.Cluster.Machine(0).GPU(0)
	gp, err := New(s, "trainer", g, 1<<30, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if g.MemFree() != 7<<30 {
		t.Errorf("device mem free = %d, want the 1 GiB model resident", g.MemFree())
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		// 16 MB batch upload (1ms) + 5ms kernel, invoked locally.
		if err := gp.Step(p, 0, 16_000_000); err != nil {
			t.Fatalf("Step: %v", err)
		}
		elapsed := p.Now().Sub(start)
		if elapsed < 6*time.Millisecond || elapsed > 6200*time.Microsecond {
			t.Errorf("step took %v, want ~6ms", elapsed)
		}
	})
	s.K.Run()
	if gp.Steps.Value() != 1 {
		t.Errorf("Steps = %d", gp.Steps.Value())
	}
}

func TestMigrateSameMachine(t *testing.T) {
	s := testSys(t)
	m0 := s.Cluster.Machine(0)
	gp, _ := New(s, "trainer", m0.GPU(0), 1<<30, time.Millisecond)
	s.K.Spawn("ctl", func(p *sim.Proc) {
		start := p.Now()
		if err := gp.migrateTo(p, m0.GPU(1)); err != nil {
			t.Fatalf("migrateTo: %v", err)
		}
		// 1 GiB down + 1 GiB up at 16 GB/s = ~67ms + ~67ms.
		elapsed := p.Now().Sub(start)
		if elapsed < 130*time.Millisecond || elapsed > 140*time.Millisecond {
			t.Errorf("same-machine GPU migration took %v, want ~134ms", elapsed)
		}
	})
	s.K.Run()
	if gp.Device() != m0.GPU(1) {
		t.Error("device not updated")
	}
	if m0.GPU(0).MemFree() != 8<<30 || m0.GPU(1).MemFree() != 7<<30 {
		t.Errorf("device memory free: src=%d dst=%d", m0.GPU(0).MemFree(), m0.GPU(1).MemFree())
	}
}

func TestMigrateCrossMachineMovesControlProclet(t *testing.T) {
	s := testSys(t)
	gp, _ := New(s, "trainer", s.Cluster.Machine(0).GPU(0), 512<<20, time.Millisecond)
	dst := s.Cluster.Machine(1).GPU(0)
	s.K.Spawn("ctl", func(p *sim.Proc) {
		if err := gp.migrateTo(p, dst); err != nil {
			t.Fatalf("migrateTo: %v", err)
		}
		// Steps must work at the new location.
		if err := gp.Step(p, 1, 1_000_000); err != nil {
			t.Errorf("Step after migration: %v", err)
		}
	})
	s.K.Run()
	if gp.Device() != dst {
		t.Error("device not updated")
	}
	if loc := s.Runtime.Lookup(gp.pr.ID()).Location(); loc != 1 {
		t.Errorf("control proclet on machine %d, want 1", loc)
	}
}

func TestMigrationBlocksAndDrainsSteps(t *testing.T) {
	s := testSys(t)
	m0 := s.Cluster.Machine(0)
	gp, _ := New(s, "trainer", m0.GPU(0), 256<<20, 10*time.Millisecond)
	var stepDone, migDone sim.Time
	s.K.Spawn("stepper", func(p *sim.Proc) {
		if err := gp.Step(p, 0, 1_000_000); err != nil {
			t.Errorf("Step: %v", err)
		}
		stepDone = p.Now()
	})
	s.K.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // step now in flight
		if err := gp.migrateTo(p, m0.GPU(1)); err != nil {
			t.Fatalf("migrateTo: %v", err)
		}
		migDone = p.Now()
	})
	s.K.Run()
	if migDone <= stepDone {
		t.Errorf("migration (%v) must drain the in-flight step (%v)", migDone, stepDone)
	}
}

func TestMigrateToReclaimedFails(t *testing.T) {
	s := testSys(t)
	m0 := s.Cluster.Machine(0)
	gp, _ := New(s, "trainer", m0.GPU(0), 1<<20, time.Millisecond)
	m0.GPU(1).SetAvailable(false)
	s.K.Spawn("ctl", func(p *sim.Proc) {
		if err := gp.migrateTo(p, m0.GPU(1)); !errors.Is(err, ErrReclaimed) {
			t.Errorf("err = %v, want ErrReclaimed", err)
		}
	})
	s.K.Run()
}

func TestStepOnReclaimedGPUFails(t *testing.T) {
	s := testSys(t)
	g := s.Cluster.Machine(0).GPU(0)
	gp, _ := New(s, "trainer", g, 1<<20, time.Millisecond)
	g.SetAvailable(false)
	s.K.Spawn("driver", func(p *sim.Proc) {
		if err := gp.Step(p, 0, 1000); !errors.Is(err, ErrReclaimed) {
			t.Errorf("err = %v, want ErrReclaimed", err)
		}
	})
	s.K.Run()
}

func TestFleetEvacuatesOnReclaim(t *testing.T) {
	s := testSys(t)
	fleet := NewFleet(s, "fleet", Config{})
	gp, err := fleet.Add("trainer-0", 256<<20, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Start()
	src := gp.Device()
	s.K.Schedule(5*sim.Millisecond, func() { src.SetAvailable(false) })
	s.K.RunUntil(sim.Time(100 * time.Millisecond))
	fleet.Stop()
	if gp.Device() == src {
		t.Fatal("proclet not evacuated from reclaimed GPU")
	}
	if !gp.Device().Available() {
		t.Error("evacuated to an unavailable GPU")
	}
	if fleet.Evacuations.Value() != 1 {
		t.Errorf("Evacuations = %d, want 1", fleet.Evacuations.Value())
	}
	// 256 MiB down+up (~16+16ms, maybe + wire) within ~50ms.
	if lat := fleet.MigrationLatency.Max(); lat > 0.06 {
		t.Errorf("evac latency = %vs, want < 60ms", lat)
	}
}

func TestFleetStrandedWhenNoSpare(t *testing.T) {
	s := testSys(t)
	fleet := NewFleet(s, "fleet", Config{})
	gp, _ := fleet.Add("trainer-0", 1<<20, time.Millisecond)
	fleet.Start()
	// Reclaim everything.
	for _, m := range s.Cluster.Machines() {
		for _, g := range m.GPUs() {
			g.SetAvailable(false)
		}
	}
	s.K.RunUntil(sim.Time(10 * time.Millisecond))
	fleet.Stop()
	if fleet.Evacuations.Value() != 0 {
		t.Error("evacuated with no spare available")
	}
	if fleet.Stranded.Value() == 0 {
		t.Error("stranded condition not recorded")
	}
	_ = gp
}

func TestDestroyReleasesEverything(t *testing.T) {
	s := testSys(t)
	g := s.Cluster.Machine(0).GPU(0)
	gp, _ := New(s, "trainer", g, 1<<30, time.Millisecond)
	if err := gp.Destroy(); err != nil {
		t.Fatal(err)
	}
	if g.MemFree() != 8<<30 {
		t.Errorf("device mem leaked: %d free of 8 GiB", g.MemFree())
	}
	if s.Cluster.Machine(0).MemUsed() != 0 {
		t.Errorf("host mem leaked: %d", s.Cluster.Machine(0).MemUsed())
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		if err := gp.Step(p, 0, 1000); !errors.Is(err, proclet.ErrNotFound) && !errors.Is(err, proclet.ErrDead) {
			t.Errorf("step after destroy: %v", err)
		}
	})
	s.K.Run()
}
