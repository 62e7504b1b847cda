package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func gpuMachine(t *testing.T, gpus int) (*sim.Kernel, *Machine) {
	t.Helper()
	k := sim.NewKernel(1)
	m := NewMachine(k, 0, "m", MachineConfig{Cores: 8, MemBytes: 1 << 30})
	m.AddGPUs(GPUConfig{Count: gpus, MemBytes: 4 << 30, LinkBandwidth: 1_000_000_000})
	return k, m
}

func TestAddGPUsAndAccessors(t *testing.T) {
	_, m := gpuMachine(t, 3)
	if len(m.GPUs()) != 3 || len(m.GPUs()) != 3 {
		t.Fatalf("NumGPUs = %d", len(m.GPUs()))
	}
	if m.GPU(0) == nil || m.GPU(3) != nil || m.GPU(-1) != nil {
		t.Error("GPU() bounds broken")
	}
	if m.GPU(0).linkBw != 1_000_000_000 {
		t.Errorf("link bw = %d", m.GPU(0).linkBw)
	}
	if m.GPU(1).String() != "m0/gpu1" {
		t.Errorf("String = %q", m.GPU(1).String())
	}
	if !m.GPU(0).Available() {
		t.Error("new GPU not available")
	}
}

func TestAddGPUsTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, m := gpuMachine(t, 1)
	m.AddGPUs(GPUConfig{Count: 1, MemBytes: 1, LinkBandwidth: 1})
}

func TestAddGPUsZeroCountNoop(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMachine(k, 0, "m", MachineConfig{Cores: 1})
	m.AddGPUs(GPUConfig{Count: 0})
	if len(m.GPUs()) != 0 {
		t.Errorf("NumGPUs = %d", len(m.GPUs()))
	}
}

func TestGPUKernelSerialization(t *testing.T) {
	k, m := gpuMachine(t, 1)
	g := m.GPU(0)
	var d1, d2 sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		g.ExecKernel(p, 4*time.Millisecond)
		d1 = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		g.ExecKernel(p, 4*time.Millisecond)
		d2 = p.Now()
	})
	k.Run()
	if d1 != 4*sim.Millisecond || d2 != 8*sim.Millisecond {
		t.Errorf("kernels at %v/%v, want 4ms/8ms (serialized)", d1, d2)
	}
	if g.KernelBusy != 8*time.Millisecond {
		t.Errorf("KernelBusy = %v, want 8ms", g.KernelBusy)
	}
}

func TestGPULinkSerialization(t *testing.T) {
	k, m := gpuMachine(t, 2)
	g0, g1 := m.GPU(0), m.GPU(1)
	var up, down, other sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		g0.Upload(p, 1_000_000) // 1ms at 1GB/s
		up = p.Now()
		g0.Download(p, 1_000_000)
		down = p.Now()
	})
	// A different GPU's link is independent.
	k.Spawn("b", func(p *sim.Proc) {
		g1.Upload(p, 1_000_000)
		other = p.Now()
	})
	k.Run()
	if up != sim.Millisecond || down != 2*sim.Millisecond {
		t.Errorf("g0 transfers at %v/%v, want 1ms/2ms (serialized per link)", up, down)
	}
	if other != sim.Millisecond {
		t.Errorf("g1 transfer at %v, want 1ms (independent link)", other)
	}
}

func TestGPUZeroTransfersFree(t *testing.T) {
	k, m := gpuMachine(t, 1)
	g := m.GPU(0)
	k.Spawn("a", func(p *sim.Proc) {
		g.Upload(p, 0)
		g.ExecKernel(p, 0)
		if p.Now() != 0 {
			t.Errorf("zero-cost ops advanced time to %v", p.Now())
		}
	})
	k.Run()
}

func TestAddGPUsHeterogeneousClasses(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMachine(k, 0, "m", MachineConfig{Cores: 8, MemBytes: 1 << 30})
	m.AddGPUs(
		GPUConfig{Count: 2, MemBytes: 8 << 30, LinkBandwidth: 2_000_000_000, Class: "h100", Speed: 2},
		GPUConfig{Count: 1, MemBytes: 4 << 30, LinkBandwidth: 1_000_000_000, Class: "t4", Speed: 0.5},
	)
	if len(m.GPUs()) != 3 {
		t.Fatalf("NumGPUs = %d", len(m.GPUs()))
	}
	fast, slow := m.GPU(0), m.GPU(2)
	if fast.Class() != "h100" || fast.speed != 2 || fast.memCap != 8<<30 {
		t.Errorf("fast class = %q speed=%v cap=%d", fast.Class(), fast.speed, fast.memCap)
	}
	if slow.Class() != "t4" || slow.speed != 0.5 || slow.linkBw != 1_000_000_000 {
		t.Errorf("slow class = %q speed=%v bw=%d", slow.Class(), slow.speed, slow.linkBw)
	}
	// Machine-level bandwidth reports the first class.
	// A 4ms baseline kernel runs in 2ms on the 2x class, 8ms on the 0.5x.
	var tFast, tSlow sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		fast.ExecKernel(p, 4*time.Millisecond)
		tFast = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		slow.ExecKernel(p, 4*time.Millisecond)
		tSlow = p.Now()
	})
	k.Run()
	if tFast != 2*sim.Millisecond || tSlow != 8*sim.Millisecond {
		t.Errorf("kernel done at %v/%v, want 2ms/8ms", tFast, tSlow)
	}
}

func TestGPUThermalThrottle(t *testing.T) {
	k, m := gpuMachine(t, 1)
	g := m.GPU(0)
	g.SetThrottle(2.5)
	if g.Throttle() != 2.5 || g.EffectiveSpeed() != 0.4 {
		t.Errorf("throttle=%v eff=%v", g.Throttle(), g.EffectiveSpeed())
	}
	k.Spawn("a", func(p *sim.Proc) {
		g.ExecKernel(p, 4*time.Millisecond)
		if p.Now() != 10*sim.Millisecond {
			t.Errorf("throttled kernel done at %v, want 10ms", p.Now())
		}
		g.Heal()
		g.ExecKernel(p, 4*time.Millisecond)
		if p.Now() != 14*sim.Millisecond {
			t.Errorf("healed kernel done at %v, want 14ms", p.Now())
		}
	})
	k.Run()
	if g.throttle != 1 || g.stallEvery != 0 {
		t.Error("still degraded after Heal")
	}
}

func TestGPUThrottleBelowOnePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, m := gpuMachine(t, 1)
	m.GPU(0).SetThrottle(0.5)
}

func TestGPUECCStutter(t *testing.T) {
	k, m := gpuMachine(t, 1)
	g := m.GPU(0)
	g.SetStutter(3, 5*time.Millisecond) // every 3rd kernel stalls 5ms
	if g.stallEvery == 0 {
		t.Error("stutter not reported")
	}
	k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			g.ExecKernel(p, time.Millisecond)
		}
		// 1 + 1 + (1+5) = 8ms.
		if p.Now() != 8*sim.Millisecond {
			t.Errorf("3 stuttering kernels done at %v, want 8ms", p.Now())
		}
	})
	k.Run()
	g.SetStutter(0, 0)
	if g.stallEvery != 0 {
		t.Error("stutter not cleared")
	}
}

func TestGPUXidFail(t *testing.T) {
	_, m := gpuMachine(t, 1)
	g := m.GPU(0)
	if g.Failed() || !g.Healthy() || g.Xid() != 0 {
		t.Fatal("fresh GPU reports failure")
	}
	g.Fail(79) // XID 79: GPU fell off the bus
	if !g.Failed() || g.Healthy() || g.Xid() != 79 || g.EffectiveSpeed() != 0 {
		t.Errorf("failed=%v healthy=%v xid=%d eff=%v", g.Failed(), g.Healthy(), g.Xid(), g.EffectiveSpeed())
	}
	if !g.Available() {
		t.Error("Fail must not change spot availability")
	}
	g.Heal()
	if g.Failed() || g.Xid() != 0 || !g.Healthy() {
		t.Error("Heal did not clear XID state")
	}
	// Reclaimed but unfailed: not healthy either.
	g.SetAvailable(false)
	if g.Healthy() || g.EffectiveSpeed() != 0 {
		t.Error("reclaimed GPU reports healthy")
	}
}

func TestGPUQueueWaitReturns(t *testing.T) {
	k, m := gpuMachine(t, 1)
	g := m.GPU(0)
	var waitA, waitB, waitUp time.Duration
	k.Spawn("a", func(p *sim.Proc) {
		waitA = g.ExecKernel(p, 4*time.Millisecond)
	})
	k.Spawn("b", func(p *sim.Proc) {
		waitB = g.ExecKernel(p, 4*time.Millisecond)
		waitUp = g.Upload(p, 1_000_000)
	})
	k.Run()
	if waitA != 0 || waitB != 4*time.Millisecond {
		t.Errorf("queue waits %v/%v, want 0/4ms", waitA, waitB)
	}
	if waitUp != 0 {
		t.Errorf("upload wait = %v, want 0 (idle link)", waitUp)
	}
}

func TestGPUMemBounds(t *testing.T) {
	_, m := gpuMachine(t, 1)
	g := m.GPU(0)
	if err := g.AllocMem(4 << 30); err != nil {
		t.Fatal(err)
	}
	if err := g.AllocMem(1); !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v", err)
	}
	if g.MemFree() != 0 || g.memUsed != 4<<30 {
		t.Errorf("free=%d used=%d", g.MemFree(), g.memUsed)
	}
	g.FreeMem(4 << 30)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on over-free")
		}
	}()
	g.FreeMem(1)
}
