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
	// Checkpoint applies to proclets created through Add.
	Checkpoint CheckpointConfig

	// StragglerFactor flags a proclet whose step-latency EWMA exceeds
	// factor × fleet-median (default 1.7).
	StragglerFactor float64
}

// The watcher's tuning.
const (
	// watchPeriod is the watcher interval; faults also Kick the
	// watcher so reaction latency is not quantized to it.
	watchPeriod = time.Millisecond
	// hysteresis is how many consecutive watcher passes a proclet must
	// look slow before mitigation — a single throttle flap or stutter
	// spike doesn't trigger a move.
	hysteresis = 3
	// minSamples is how many steps must feed a proclet's EWMA on its
	// current device before the detector judges it.
	minSamples = 6
	// cooldownPasses suppresses re-mitigating (or re-judging) a
	// proclet for this many watcher passes after it changes device, so
	// the fresh EWMA can stabilize.
	cooldownPasses = 10
)

func (c Config) withDefaults() Config {
	if c.StragglerFactor <= 1 {
		c.StragglerFactor = 1.7
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
	// their durations.
	Evacuations      metrics.Counter
	Restores         metrics.Counter
	Mitigations      metrics.Counter
	MigrationLatency metrics.Summary
	// Stranded counts watcher passes where a proclet sat on a lost
	// device with nowhere to go.
	Stranded metrics.Counter
}

// NewFleet creates a fleet manager; a zero Config has default
// straggler tuning and no checkpointing.
func NewFleet(sys *core.System, name string, cfg Config) *Fleet {
	return &Fleet{
		sys:  sys,
		name: name,
		cfg:  cfg.withDefaults(),
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
	gp, err := newCheckpointed(f.sys, name, g, modelBytes, stepKernel, f.cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	f.procs = append(f.procs, &entry{gp: gp})
	return gp, nil
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
			if g == cur || !g.Healthy() || g.MemFree() < gp.modelBytes {
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

// Start launches the watcher.
func (f *Fleet) Start() {
	f.sys.K.Spawn(fmt.Sprintf("gpu-fleet/%s", f.name), func(p *sim.Proc) {
		for {
			if f.stopped {
				return
			}
			f.wake.WaitTimeout(p, watchPeriod)
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
		dst, err := f.PickGPU(gp.modelBytes, gp.Device())
		if err != nil || f.move(p, e, dst, gp.restoreTo, &f.Restores) != nil {
			f.Stranded.Inc()
		}
	}
	// Spot reclaims: the device is readable for the grace window, so
	// evacuate by readback.
	for _, e := range f.procs {
		gp := e.gp
		d := gp.Device()
		if gp.dead || d.Available() || d.Failed() {
			continue
		}
		dst, err := f.PickGPU(gp.modelBytes, d)
		if err != nil || f.move(p, e, dst, gp.migrateTo, &f.Evacuations) != nil {
			f.Stranded.Inc()
		}
	}
	f.detectStragglers(p)
	// Release drivers parked in Train whose proclet is whole
	// again (including devices healed in place).
	for _, e := range f.procs {
		if gp := e.gp; !gp.dead && !gp.migrating && gp.Device().Healthy() {
			gp.unblocked.Broadcast()
		}
	}
}

// move moves e's proclet to dst by how (restoreTo or migrateTo); once
// it has moved, it counts the move in n, records how long it took and
// resets the detector's state for the proclet.
func (f *Fleet) move(p *sim.Proc, e *entry, dst *cluster.GPU, how func(*sim.Proc, *cluster.GPU) error, n *metrics.Counter) error {
	start := p.Now()
	if err := how(p, dst); err != nil {
		return err
	}
	n.Inc()
	f.MigrationLatency.Record(int64(p.Now().Sub(start)))
	e.strikes = 0
	e.cooldownUntil = f.pass + cooldownPasses
	return nil
}

// detectStragglers compares each proclet's step-latency EWMA against
// the fleet median and speculatively re-dispatches persistent outliers
// to a strictly faster spare. Hysteresis (consecutive strikes) and a
// post-move cooldown keep throttle flaps from thrashing the fleet.
func (f *Fleet) detectStragglers(p *sim.Proc) {
	var lats []float64
	for _, e := range f.procs {
		if gp := e.gp; !gp.dead && gp.Device().Healthy() && gp.stepSamples() >= minSamples {
			lats = append(lats, gp.stepLatencyMS())
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
		if gp.dead || !gp.Device().Healthy() || gp.stepSamples() < minSamples {
			continue
		}
		if gp.stepLatencyMS() <= threshold {
			e.strikes = 0
			continue
		}
		e.strikes++
		if e.strikes < hysteresis || f.pass < e.cooldownUntil {
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
			gp.stepLatencyMS(), median, gp.Device().String(), dst.String())
		f.move(p, e, dst, gp.migrateTo, &f.Mitigations)
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
