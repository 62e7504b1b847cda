package baseline

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func corpus(n int) []workload.Image {
	return workload.GenImages(rand.New(rand.NewSource(1)), n, 1<<20, 10*time.Millisecond, 0.2)
}

func TestStaticPipelineBalanced(t *testing.T) {
	k := sim.NewKernel(1)
	c := cluster.New(k, simnet.DefaultConfig())
	m0 := c.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30})
	m1 := c.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30})
	imgs := corpus(400)
	res := StaticPipeline(k, []*cluster.Machine{m0, m1}, imgs, []float64{0.5, 0.5})
	if res.OOM != nil {
		t.Fatalf("unexpected OOM: %v", res.OOM)
	}
	// ~400 x 10ms / 8 cores = ~0.5s.
	got := res.Completion.Seconds()
	if got < 0.4 || got > 0.7 {
		t.Errorf("completion = %vs, want ~0.5s", got)
	}
	if m0.MemUsed() != 0 || m1.MemUsed() != 0 {
		t.Error("memory not released")
	}
}

func TestStaticPipelineOOMOnMemImbalance(t *testing.T) {
	// Mem-unbalanced: machine 0 has 100 MiB but must hold ~200 MiB.
	k := sim.NewKernel(1)
	c := cluster.New(k, simnet.DefaultConfig())
	m0 := c.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 100 << 20})
	m1 := c.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30})
	imgs := corpus(400)
	res := StaticPipeline(k, []*cluster.Machine{m0, m1}, imgs, []float64{0.5, 0.5})
	if !errors.Is(res.OOM, cluster.ErrNoMemory) {
		t.Fatalf("OOM = %v, want ErrNoMemory", res.OOM)
	}
	if m0.MemUsed() != 0 || m1.MemUsed() != 0 {
		t.Error("memory leaked after failed run")
	}
}

func TestStaticPipelineStrandsCPUOnCPUImbalance(t *testing.T) {
	// CPU-unbalanced with memory-proportional partitioning: the 2-core
	// machine takes half the work and dominates completion time while
	// the 14-core machine idles — stranded CPU.
	k := sim.NewKernel(1)
	c := cluster.New(k, simnet.DefaultConfig())
	m0 := c.AddMachine(cluster.MachineConfig{Cores: 2, MemBytes: 1 << 30})
	m1 := c.AddMachine(cluster.MachineConfig{Cores: 14, MemBytes: 1 << 30})
	imgs := corpus(400)
	res := StaticPipeline(k, []*cluster.Machine{m0, m1}, imgs, []float64{0.5, 0.5})
	if res.OOM != nil {
		t.Fatalf("OOM: %v", res.OOM)
	}
	// Ideal on 16 pooled cores: 4s/16 = 0.25s. Static: half the work on
	// 2 cores = ~1s. The static run must be at least ~3x worse.
	if res.Completion.Seconds() < 0.75 {
		t.Errorf("completion = %vs; static partitioning should strand CPU (~1s)", res.Completion.Seconds())
	}
}

func TestCoarseAppMovesSlowly(t *testing.T) {
	s := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	ca, err := NewCoarseApp(s, "vm", 0, 4, 2<<30, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ca.StartMonitor()
	var feed func(cp *core.ComputeProclet)
	feed = func(cp *core.ComputeProclet) {
		cp.Run(func(tc *core.TaskCtx) {
			tc.Compute(time.Millisecond)
			feed(tc.ComputeProclet())
		})
	}
	feed(ca.Compute())
	// Reserve machine 0 fully at t=100ms.
	s.K.Schedule(sim.Time(100*time.Millisecond), func() { s.Cluster.Machine(0).SetReserved(8) })
	s.K.RunUntil(sim.Time(300 * time.Millisecond))
	if ca.cp.Location() != 0 {
		t.Fatal("coarse app moved before its monitor period elapsed")
	}
	s.K.RunUntil(sim.Time(1200 * time.Millisecond))
	if ca.cp.Location() != 1 || ca.Moves != 1 {
		t.Fatalf("loc=%d moves=%d, want moved to 1 once", ca.cp.Location(), ca.Moves)
	}
	// The move itself must be slow: 2 GiB over 12.5 GB/s ~ 170ms.
	if lat := s.Runtime.MigrationLatency.Max(); lat < 0.1 {
		t.Errorf("coarse migration took %vs, want >= 100ms", lat)
	}
}
