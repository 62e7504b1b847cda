package cluster

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// GPU models one accelerator attached to a machine: device memory,
// serialized kernel execution, and a host link (PCIe) whose bandwidth
// governs batch uploads and device-state transfers. Devices are
// heterogeneous — each belongs to a class with its own throughput
// multiplier, memory size, and link speed — and unreliable:
//
//   - Spot GPUs can be reclaimed and returned at runtime via
//     SetAvailable. A reclaimed device keeps its memory readable for the
//     provider's grace window, so state can be evacuated.
//   - Fail(xid) is a fatal XID-style device error: the device stops
//     executing and its memory contents are gone. Recovery must come
//     from state kept elsewhere (a checkpoint).
//   - SetThrottle models thermal throttling: every kernel runs slower
//     by a multiplicative factor until the device heals.
//   - SetStutter models ECC pressure: every Nth kernel stalls for a
//     fixed extra duration (retired-page scrubbing, ECC replays).
//
// All failure state changes are plain field writes driven from kernel
// context (fault schedules, tests), so runs remain deterministic.
type GPU struct {
	Machine *Machine
	Index   int

	class  string
	speed  float64 // kernel-throughput multiplier (1.0 = baseline class)
	linkBw int64   // host<->device bytes/second

	memCap  int64
	memUsed int64

	execFree sim.Time // kernels serialize on the device
	linkFree sim.Time // host<->device transfers serialize on the link

	available bool

	// Gray-failure state.
	failed     bool
	xid        int
	throttle   float64 // >= 1; kernel durations multiply by this
	stallEvery int64   // every Nth kernel stalls (0 = no stutter)
	stall      time.Duration
	kernels    int64 // kernels launched, drives the stutter cadence

	// KernelBusy accumulates device-busy time.
	KernelBusy time.Duration
}

// GPUConfig sizes one class of accelerators on a machine.
type GPUConfig struct {
	// Count is the number of GPUs of this class.
	Count int
	// MemBytes is device memory per GPU.
	MemBytes int64
	// LinkBandwidth is host<->device bandwidth in bytes/second
	// (PCIe-class; also used for device-to-device via host).
	LinkBandwidth int64
	// Class names the device class ("a100"; defaults to "gpu").
	Class string
	// Speed is the kernel-throughput multiplier relative to the
	// baseline class: a kernel declared as d runs in d/Speed device
	// time. 0 means 1.0.
	Speed float64
}

// AddGPUs attaches accelerators to the machine — one or more classes,
// indexed in declaration order. Call once, before the simulation
// starts.
func (m *Machine) AddGPUs(cfgs ...GPUConfig) {
	if len(m.gpus) > 0 {
		panic("cluster: GPUs already attached")
	}
	for _, cfg := range cfgs {
		if cfg.Count <= 0 {
			continue
		}
		if cfg.LinkBandwidth <= 0 {
			panic("cluster: GPU link bandwidth must be positive")
		}
		if cfg.Speed < 0 {
			panic("cluster: GPU speed must be non-negative")
		}
		speed := cfg.Speed
		if speed == 0 {
			speed = 1
		}
		class := cfg.Class
		if class == "" {
			class = "gpu"
		}
		for i := 0; i < cfg.Count; i++ {
			m.gpus = append(m.gpus, &GPU{
				Machine:   m,
				Index:     len(m.gpus),
				class:     class,
				speed:     speed,
				linkBw:    cfg.LinkBandwidth,
				memCap:    cfg.MemBytes,
				available: true,
				throttle:  1,
			})
		}
	}
}

// GPU returns the i-th GPU, or nil.
func (m *Machine) GPU(i int) *GPU {
	if i < 0 || i >= len(m.gpus) {
		return nil
	}
	return m.gpus[i]
}

// GPUs returns all GPUs on the machine (not a copy).
func (m *Machine) GPUs() []*GPU { return m.gpus }

// String identifies the GPU.
func (g *GPU) String() string { return fmt.Sprintf("m%d/gpu%d", g.Machine.ID, g.Index) }

// Class returns the device class name.
func (g *GPU) Class() string { return g.class }

// Available reports whether the GPU is currently allocated to us (spot
// GPUs can be reclaimed by the provider). An available device may
// still be Failed.
func (g *GPU) Available() bool { return g.available }

// SetAvailable marks the GPU reclaimed (false) or returned (true).
func (g *GPU) SetAvailable(a bool) { g.available = a }

// Failed reports whether the device hit a fatal XID-style error. A
// failed device executes nothing and its memory contents are lost.
func (g *GPU) Failed() bool { return g.failed }

// Xid returns the fatal error code from the last Fail (0 if none).
func (g *GPU) Xid() int { return g.xid }

// Fail injects a fatal device error with the given XID code. Memory
// accounting is untouched (owners still release their reservations),
// but the contents are unrecoverable: evacuation by Download is not an
// option, only checkpoint-based re-placement is.
func (g *GPU) Fail(xid int) {
	g.failed = true
	g.xid = xid
}

// Healthy reports whether the device can run kernels at all: allocated
// to us and not failed. Throttled or stuttering devices are unhealthy
// performers but still Healthy here.
func (g *GPU) Healthy() bool { return g.available && !g.failed }

// Throttle returns the current thermal slowdown factor (1 = nominal).
func (g *GPU) Throttle() float64 { return g.throttle }

// SetThrottle sets the thermal slowdown factor; every kernel's
// duration multiplies by it. factor < 1 panics.
func (g *GPU) SetThrottle(factor float64) {
	if factor < 1 {
		panic(fmt.Sprintf("cluster: GPU throttle factor %v < 1", factor))
	}
	g.throttle = factor
}

// SetStutter makes every Nth kernel stall for d on top of its runtime
// (ECC replays, page retirement scrubbing). every <= 0 clears it.
func (g *GPU) SetStutter(every int, d time.Duration) {
	if every <= 0 {
		g.stallEvery, g.stall = 0, 0
		return
	}
	g.stallEvery, g.stall = int64(every), d
}

// Heal clears all gray-failure state: the device is replaced or
// recovered — unfailed, unthrottled, stutter-free. Memory accounting
// and availability are untouched.
func (g *GPU) Heal() {
	g.failed = false
	g.xid = 0
	g.throttle = 1
	g.stallEvery = 0
	g.stall = 0
}

// EffectiveSpeed is the throughput the device delivers right now,
// relative to a baseline-class device at nominal temperature:
// class speed divided by the thermal throttle. Stutter is excluded —
// it is intermittent, and shows up in step-latency telemetry instead.
// A failed or reclaimed device has effective speed 0.
func (g *GPU) EffectiveSpeed() float64 {
	if !g.Healthy() {
		return 0
	}
	return g.speed / g.throttle
}

// MemFree returns unallocated device memory.
func (g *GPU) MemFree() int64 { return g.memCap - g.memUsed }

// AllocMem reserves device memory.
func (g *GPU) AllocMem(bytes int64) error {
	if bytes < 0 {
		panic("cluster: negative GPU allocation")
	}
	if g.memUsed+bytes > g.memCap {
		return fmt.Errorf("%w: %s: %d requested, %d free", ErrNoMemory, g, bytes, g.MemFree())
	}
	g.memUsed += bytes
	return nil
}

// FreeMem releases device memory.
func (g *GPU) FreeMem(bytes int64) {
	if bytes < 0 || bytes > g.memUsed {
		panic(fmt.Sprintf("cluster: bad GPU free of %d (used %d)", bytes, g.memUsed))
	}
	g.memUsed -= bytes
}

// ExecKernel runs a kernel declared as d of baseline device time,
// blocking the calling process. The actual duration is d scaled by the
// class speed and the thermal throttle, plus the ECC stall when the
// stutter cadence hits. Kernels serialize on the device. The returned
// duration is the queueing delay: how long the kernel waited for the
// device before starting.
func (g *GPU) ExecKernel(p *sim.Proc, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	k := g.Machine.k
	now := k.Now()
	start := now
	if g.execFree > start {
		start = g.execFree
	}
	eff := time.Duration(float64(d) / g.speed * g.throttle)
	g.kernels++
	if g.stallEvery > 0 && g.kernels%g.stallEvery == 0 {
		eff += g.stall
	}
	end := start.Add(eff)
	g.execFree = end
	g.KernelBusy += eff
	p.SleepUntil(end)
	return time.Duration(start - now)
}

// Upload transfers bytes from the host to the device over the link,
// blocking the calling process. Transfers serialize on the link. The
// returned duration is the time spent queued behind earlier transfers.
func (g *GPU) Upload(p *sim.Proc, bytes int64) time.Duration {
	return g.linkTransfer(p, bytes)
}

// Download transfers bytes from the device to the host.
func (g *GPU) Download(p *sim.Proc, bytes int64) time.Duration {
	return g.linkTransfer(p, bytes)
}

func (g *GPU) linkTransfer(p *sim.Proc, bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	k := g.Machine.k
	now := k.Now()
	start := now
	if g.linkFree > start {
		start = g.linkFree
	}
	dur := time.Duration(float64(bytes) / float64(g.linkBw) * 1e9)
	end := start.Add(dur)
	g.linkFree = end
	p.SleepUntil(end)
	return time.Duration(start - now)
}
