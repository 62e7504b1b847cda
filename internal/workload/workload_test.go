package workload

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/sim"
)

// reserved is the cores m's antagonist holds.
func reserved(m *cluster.Machine) float64 { return m.Cores() - m.AvailCores() }

func TestAntagonistSquareWave(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 8})
	a := &Antagonist{Machine: m, Period: 20 * time.Millisecond, Busy: 10 * time.Millisecond, Cores: 8}
	a.Start(k)
	samples := map[sim.Time]float64{}
	for _, at := range []sim.Time{sim.Time(5 * time.Millisecond), sim.Time(15 * time.Millisecond),
		sim.Time(25 * time.Millisecond), sim.Time(35 * time.Millisecond)} {
		at := at
		k.Schedule(at, func() { samples[at] = reserved(m) })
	}
	k.Schedule(40*sim.Millisecond, func() { a.Stop(); k.Stop() })
	k.Run()
	if samples[sim.Time(5*time.Millisecond)] != 8 || samples[sim.Time(25*time.Millisecond)] != 8 {
		t.Errorf("busy windows wrong: %v", samples)
	}
	if samples[sim.Time(15*time.Millisecond)] != 0 || samples[sim.Time(35*time.Millisecond)] != 0 {
		t.Errorf("idle windows wrong: %v", samples)
	}
}

func TestAntagonistPhaseOffset(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 4})
	a := &Antagonist{Machine: m, Period: 20 * time.Millisecond, Busy: 10 * time.Millisecond,
		Offset: 10 * time.Millisecond, Cores: 4}
	a.Start(k)
	var at5, at15 float64 = -1, -1
	k.Schedule(5*sim.Millisecond, func() { at5 = reserved(m) })
	k.Schedule(15*sim.Millisecond, func() { at15 = reserved(m) })
	k.Schedule(30*sim.Millisecond, func() { a.Stop(); k.Stop() })
	k.Run()
	if at5 != 0 || at15 != 4 {
		t.Errorf("offset wave: at5=%v at15=%v, want 0 and 4", at5, at15)
	}
}

func TestAntagonistJitterDeterministic(t *testing.T) {
	// Same injected RNG seed → identical reservation timeline; jitter
	// must never come from package-global randomness.
	run := func(seed int64) []float64 {
		k := sim.NewKernel(1)
		m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 8})
		a := &Antagonist{Machine: m, Period: 20 * time.Millisecond, Busy: 8 * time.Millisecond,
			Cores: 8, Jitter: 4 * time.Millisecond, Rng: rand.New(rand.NewSource(seed))}
		a.Start(k)
		var samples []float64
		for at := sim.Time(time.Millisecond); at < sim.Time(200*time.Millisecond); at += sim.Time(time.Millisecond) {
			k.Schedule(at, func() { samples = append(samples, reserved(m)) })
		}
		k.Schedule(sim.Time(200*time.Millisecond), func() { a.Stop(); k.Stop() })
		k.Run()
		return samples
	}
	a1, a2, b := run(5), run(5), run(6)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different jitter timeline")
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter timeline (jitter inert?)")
	}
}

func TestAntagonistJitterRequiresRng(t *testing.T) {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 8})
	a := &Antagonist{Machine: m, Period: 20 * time.Millisecond, Busy: 8 * time.Millisecond,
		Cores: 8, Jitter: 2 * time.Millisecond}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: jitter without injected RNG")
		}
	}()
	a.Start(k)
}

func TestGenImagesDeterministicAndCalibrated(t *testing.T) {
	g1 := GenImages(rand.New(rand.NewSource(7)), 1000, 1<<20, 100*time.Millisecond, 0.3)
	g2 := GenImages(rand.New(rand.NewSource(7)), 1000, 1<<20, 100*time.Millisecond, 0.3)
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	cpu := TotalCPU(g1)
	if cpu < 90 || cpu > 110 { // 1000 x ~100ms = ~100 core-seconds
		t.Errorf("TotalCPU = %v, want ~100", cpu)
	}
	bytes := TotalBytes(g1)
	if bytes < 900<<20 || bytes > 1100<<20 {
		t.Errorf("TotalBytes = %v, want ~1GiB", bytes)
	}
	for _, im := range g1 {
		f := float64(im.Bytes) / float64(1<<20)
		if f < 0.69 || f > 1.31 {
			t.Errorf("image %d bytes out of spread: %v", im.Idx, f)
		}
	}
}

func gpuTestSys(t *testing.T) (*core.System, *sharded.Queue[Batch]) {
	t.Helper()
	s := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 1 << 30},
		{Cores: 8, MemBytes: 1 << 30},
	})
	q, err := sharded.NewQueue[Batch](s, "q", sharded.Options{MaxShardBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s, q
}

func TestGPUPoolDrainsQueue(t *testing.T) {
	s, q := gpuTestSys(t)
	g := NewGPUPool(q, 1, time.Millisecond, 4)
	g.Start(s.K)
	s.K.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			q.Push(p, 0, Batch{Seq: i, Bytes: 1 << 10}, 1<<10)
		}
	})
	s.K.RunUntil(sim.Time(50 * time.Millisecond))
	g.Stop()
	if g.Consumed.Value() != 40 {
		t.Errorf("Consumed = %d, want 40", g.Consumed.Value())
	}
	// 40 batches / 4 GPUs x 1ms = ~10ms of busy time each.
	if busy := float64(g.busyNs) / 1e9; busy < 0.039 || busy > 0.041 {
		t.Errorf("busy = %vs, want 0.040", busy)
	}
}

func TestGPUPoolSetActiveThrottles(t *testing.T) {
	s, q := gpuTestSys(t)
	g := NewGPUPool(q, 1, time.Millisecond, 8)
	g.SetActive(s.K, 2)
	g.Start(s.K)
	s.K.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			q.Push(p, 0, Batch{Seq: i, Bytes: 256}, 256)
		}
	})
	// 2 GPUs x 1ms per batch: after 10ms, at most ~20 consumed.
	s.K.RunUntil(sim.Time(10 * time.Millisecond))
	if got := g.Consumed.Value(); got > 22 {
		t.Errorf("Consumed = %d with 2 GPUs after 10ms, want <= ~20", got)
	}
	g.SetActive(s.K, 8)
	s.K.RunUntil(sim.Time(30 * time.Millisecond))
	g.Stop()
	if g.Consumed.Value() < 90 {
		t.Errorf("Consumed = %d after reactivation, want ~100", g.Consumed.Value())
	}
	if g.Active() != 8 {
		t.Errorf("Active = %d, want 8", g.Active())
	}
}

func TestToggle(t *testing.T) {
	k := sim.NewKernel(1)
	var levels []int
	Toggle(k, 200*time.Millisecond, 8, 4, sim.Time(700*time.Millisecond), func(n int) {
		levels = append(levels, n)
	})
	k.Run()
	want := []int{8, 4, 8, 4}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v, want %v", levels, want)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}
