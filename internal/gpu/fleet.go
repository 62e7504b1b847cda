package gpu

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config tunes a Fleet.
type Config struct {
	// Period is the watcher interval; faults also Kick the watcher so
	// reaction latency is not quantized to it.
	Period time.Duration
	// Checkpoint applies to proclets created through Add.
	Checkpoint CheckpointConfig

	// StragglerFactor flags a proclet whose step-latency EWMA exceeds
	// factor × fleet-median (default 1.7).
	StragglerFactor float64
	// Hysteresis is how many consecutive watcher passes a proclet must
	// look slow before mitigation — a single throttle flap or stutter
	// spike doesn't trigger a move (default 3).
	Hysteresis int
	// CooldownPasses suppresses re-mitigating (or re-judging) a
	// proclet for this many passes after it changes device, so the
	// fresh EWMA can stabilize (default 10).
	CooldownPasses int64
	// MinSamples is how many steps must feed a proclet's EWMA on its
	// current device before the detector judges it (default 6).
	MinSamples int64
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = time.Millisecond
	}
	if c.StragglerFactor <= 1 {
		c.StragglerFactor = 1.7
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	if c.CooldownPasses <= 0 {
		c.CooldownPasses = 10
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 6
	}
	return c
}

// entry is a managed proclet plus its straggler-detector state.
type entry struct {
	gp            *Proclet
	strikes       int   // consecutive passes over the straggler threshold
	cooldownUntil int64 // pass number before which the detector stays quiet
}

// Fleet manages a set of GPU proclets against a pool of (possibly
// spot, possibly flaky) GPUs. A watcher reacts to device state in
// deterministic proclet order:
//
//   - fatally failed device (XID) → checkpoint-based re-placement,
//   - reclaimed device → evacuation over the readable grace window,
//   - straggling proclet (EWMA vs. fleet median, with hysteresis and
//     cooldown so throttle flaps don't thrash) → speculative
//     re-dispatch to a strictly faster spare.
type Fleet struct {
	sys   *core.System
	name  string
	cfg   Config
	procs []*entry

	stopped bool
	wake    sim.Cond
	pass    int64

	// Evacuations counts reclaim-driven migrations; Restores counts
	// checkpoint re-placements after fatal device errors; Mitigations
	// counts straggler-driven moves. MigrationLatency records all
	// their durations in seconds.
	Evacuations      metrics.Counter
	Restores         metrics.Counter
	Mitigations      metrics.Counter
	MigrationLatency *metrics.Histogram
	// Stranded counts watcher passes where a proclet sat on a lost
	// device with nowhere to go.
	Stranded metrics.Counter
}

// NewFleet creates a fleet manager with default straggler tuning and
// no checkpointing. period is the reclaim-detection interval (the
// fast-path reactor period is a natural choice).
func NewFleet(sys *core.System, name string, period time.Duration) *Fleet {
	return NewFleetConfig(sys, name, Config{Period: period})
}

// NewFleetConfig creates a fleet manager.
func NewFleetConfig(sys *core.System, name string, cfg Config) *Fleet {
	return &Fleet{
		sys:              sys,
		name:             name,
		cfg:              cfg.withDefaults(),
		MigrationLatency: metrics.NewHistogram(name + ".evac_latency"),
	}
}

// Add places a new GPU proclet on the best available GPU (most free
// memory among devices with room) and tracks it, with the fleet's
// checkpoint policy.
func (f *Fleet) Add(name string, modelBytes int64, stepKernel time.Duration) (*Proclet, error) {
	g, err := f.PickGPU(modelBytes, nil)
	if err != nil {
		return nil, err
	}
	gp, err := NewCheckpointed(f.sys, name, g, modelBytes, stepKernel, f.cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	f.procs = append(f.procs, &entry{gp: gp})
	return gp, nil
}

// Proclets returns the managed proclets.
func (f *Fleet) Proclets() []*Proclet {
	out := make([]*Proclet, len(f.procs))
	for i, e := range f.procs {
		out[i] = e.gp
	}
	return out
}

// PickGPU returns the healthy GPU with the most free device memory
// among those with at least need bytes free, excluding `exclude`.
// Folding the capacity requirement in here (rather than checking after
// the pick) means a smaller device with room is chosen over a larger
// one without.
func (f *Fleet) PickGPU(need int64, exclude *cluster.GPU) (*cluster.GPU, error) {
	var best *cluster.GPU
	for _, m := range f.sys.Cluster.Machines() {
		for _, g := range m.GPUs() {
			if g == exclude || !g.Healthy() || g.MemFree() < need {
				continue
			}
			if best == nil || g.MemFree() > best.MemFree() {
				best = g
			}
		}
	}
	if best == nil {
		return nil, ErrNoSpare
	}
	return best, nil
}

// residents counts live managed proclets currently placed on g.
func (f *Fleet) residents(g *cluster.GPU) float64 {
	n := 0.0
	for _, e := range f.procs {
		if !e.gp.dead && e.gp.Device() == g {
			n++
		}
	}
	return n
}

// pickFaster returns the healthy spare with room whose effective speed
// (class speed over thermal throttle, divided by how many fleet
// proclets would share the device) beats the straggler's current
// per-proclet rate by a margin — moving sideways is never worth a
// model copy, and piling onto an already-busy fast device only
// time-slices it back down to what the straggler already has. Ties
// break toward more free memory, then machine/device order.
func (f *Fleet) pickFaster(gp *Proclet) *cluster.GPU {
	cur := gp.Device()
	curShare := f.residents(cur)
	if curShare < 1 {
		curShare = 1
	}
	needSpeed := cur.EffectiveSpeed() / curShare * 1.1
	var best *cluster.GPU
	bestSpeed := 0.0
	for _, m := range f.sys.Cluster.Machines() {
		for _, g := range m.GPUs() {
			if g == cur || !g.Healthy() || g.MemFree() < gp.ModelBytes() {
				continue
			}
			speed := g.EffectiveSpeed() / (f.residents(g) + 1)
			if speed < needSpeed {
				continue
			}
			if best == nil || speed > bestSpeed ||
				(speed == bestSpeed && g.MemFree() > best.MemFree()) {
				best = g
				bestSpeed = speed
			}
		}
	}
	return best
}

// AttachTelemetry registers per-proclet step-latency and queue-delay
// gauges for every currently managed proclet, following the
// proclet.<name>.qdelay_ms naming convention. Call after Add.
func (f *Fleet) AttachTelemetry(tel *obs.Telemetry) {
	for _, e := range f.procs {
		gp := e.gp
		machine := int(gp.Device().Machine.ID)
		tel.Register(fmt.Sprintf("gpu.%s.step_ms", gp.Name()), machine, gp.StepLatencyMS)
		tel.Register(fmt.Sprintf("gpu.%s.qdelay_ms", gp.Name()), machine, gp.QueueDelayMS)
	}
}

// Start launches the watcher.
func (f *Fleet) Start() {
	f.sys.K.Spawn(fmt.Sprintf("gpu-fleet/%s", f.name), func(p *sim.Proc) {
		for {
			if f.stopped {
				return
			}
			f.wake.WaitTimeout(p, f.cfg.Period)
			if f.stopped {
				return
			}
			f.react(p)
		}
	})
}

// Stop shuts the watcher down immediately: the watcher proc wakes at
// the same instant and exits without another reaction pass.
func (f *Fleet) Stop() {
	f.stopped = true
	f.wake.Broadcast()
}

// Kick wakes the watcher for an immediate reaction pass — fault hooks
// call this so reaction latency is bounded by the event, not the
// period. Wire it as fault.Injector.HookGPU:
//
//	inj.HookGPU = func(cluster.MachineID, int) { fleet.Kick() }
func (f *Fleet) Kick() {
	if !f.stopped {
		f.wake.Broadcast()
	}
}

// react runs one watcher pass. Proclets are visited in Add order, so
// contention for spares resolves deterministically (earlier proclets
// win).
func (f *Fleet) react(p *sim.Proc) {
	f.pass++
	// Fatal device errors first: these proclets are down, not slow.
	for _, e := range f.procs {
		gp := e.gp
		if gp.dead || !gp.Device().Failed() {
			continue
		}
		dst, err := f.PickGPU(gp.ModelBytes(), gp.Device())
		if err != nil {
			f.Stranded.Inc()
			continue
		}
		start := p.Now()
		if err := gp.RestoreTo(p, dst); err != nil {
			f.Stranded.Inc()
			continue
		}
		f.Restores.Inc()
		f.MigrationLatency.ObserveDuration(p.Now().Sub(start))
		f.settle(e)
	}
	// Spot reclaims: the device is readable for the grace window, so
	// evacuate by readback.
	for _, e := range f.procs {
		gp := e.gp
		d := gp.Device()
		if gp.dead || d.Available() || d.Failed() {
			continue
		}
		dst, err := f.PickGPU(gp.ModelBytes(), d)
		if err != nil {
			f.Stranded.Inc()
			continue
		}
		start := p.Now()
		if err := gp.MigrateTo(p, dst); err != nil {
			f.Stranded.Inc()
			continue
		}
		f.Evacuations.Inc()
		f.MigrationLatency.ObserveDuration(p.Now().Sub(start))
		f.settle(e)
	}
	f.detectStragglers(p)
	// Release drivers parked in AwaitPlaced whose proclet is whole
	// again (including devices healed in place).
	for _, e := range f.procs {
		if gp := e.gp; !gp.dead && !gp.migrating && gp.Device().Healthy() {
			gp.unblocked.Broadcast()
		}
	}
}

// settle resets detector state after a proclet changes device.
func (f *Fleet) settle(e *entry) {
	e.strikes = 0
	e.cooldownUntil = f.pass + f.cfg.CooldownPasses
}

// detectStragglers compares each proclet's step-latency EWMA against
// the fleet median and speculatively re-dispatches persistent outliers
// to a strictly faster spare. Hysteresis (consecutive strikes) and a
// post-move cooldown keep throttle flaps from thrashing the fleet.
func (f *Fleet) detectStragglers(p *sim.Proc) {
	var lats []float64
	for _, e := range f.procs {
		if gp := e.gp; !gp.dead && gp.Device().Healthy() && gp.StepSamples() >= f.cfg.MinSamples {
			lats = append(lats, gp.StepLatencyMS())
		}
	}
	if len(lats) < 2 {
		return
	}
	sort.Float64s(lats)
	// Lower-middle on even counts: in a two-proclet fleet the slow one
	// must be judged against the fast one, not against itself.
	median := lats[(len(lats)-1)/2]
	if median <= 0 {
		return
	}
	threshold := median * f.cfg.StragglerFactor
	for _, e := range f.procs {
		gp := e.gp
		if gp.dead || !gp.Device().Healthy() || gp.StepSamples() < f.cfg.MinSamples {
			continue
		}
		if gp.StepLatencyMS() <= threshold {
			e.strikes = 0
			continue
		}
		e.strikes++
		if e.strikes < f.cfg.Hysteresis || f.pass < e.cooldownUntil {
			continue
		}
		dst := f.pickFaster(gp)
		if dst == nil {
			// Nowhere strictly better — moving would churn, not help.
			continue
		}
		f.sys.Trace.Emitf(p.Now(), obs.KindRebalance, gp.Name(),
			int(gp.Device().Machine.ID), int(dst.Machine.ID),
			"straggler %.3fms vs median %.3fms: re-dispatch %s -> %s",
			gp.StepLatencyMS(), median, gp.Device(), dst)
		start := p.Now()
		if err := gp.MigrateTo(p, dst); err != nil {
			continue
		}
		f.Mitigations.Inc()
		f.MigrationLatency.ObserveDuration(p.Now().Sub(start))
		f.settle(e)
	}
}

// LostSteps sums acked-then-lost steps across the fleet — zero
// whenever checkpointing is on.
func (f *Fleet) LostSteps() int64 {
	var n int64
	for _, e := range f.procs {
		n += e.gp.LostSteps.Value()
	}
	return n
}
