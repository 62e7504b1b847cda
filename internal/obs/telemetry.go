package obs

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Gauge reads one instantaneous value. Gauges are polled from kernel
// context on the sampling tick, so they must not block.
type Gauge func() float64

// probe is one registered gauge plus the series it fills. machine
// associates the series with a machine track on export (-1: control
// plane).
type probe struct {
	series  *metrics.TimeSeries
	machine int
	gauge   Gauge
}

// Telemetry samples registered gauges into metrics.TimeSeries on a
// fixed cadence of the kernel clock. Unlike span recording, sampling
// schedules kernel events (one per tick), so it changes a run's event
// count — experiments that compare event counts must leave it off.
//
// A nil *Telemetry accepts Register and returns a nil series, so
// conditional instrumentation sites need no guards.
type Telemetry struct {
	k       *sim.Kernel
	period  time.Duration
	probes  []probe
	started bool
	stopped bool
}

// NewTelemetry creates a sampling registry with the given cadence.
func NewTelemetry(k *sim.Kernel, period time.Duration) *Telemetry {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Telemetry{k: k, period: period}
}

// Period returns the sampling cadence.
func (tl *Telemetry) Period() time.Duration {
	if tl == nil {
		return 0
	}
	return tl.period
}

// Register adds a gauge under the given series name. Probes registered
// after Start are picked up on the next tick. Returns the series the
// samples land in (nil on a nil registry).
func (tl *Telemetry) Register(name string, machine int, g Gauge) *metrics.TimeSeries {
	if tl == nil {
		return nil
	}
	s := metrics.NewTimeSeries(name)
	tl.probes = append(tl.probes, probe{series: s, machine: machine, gauge: g})
	return s
}

// Start launches the sampling loop, first tick one period from now.
// Idempotent.
func (tl *Telemetry) Start() {
	if tl == nil || tl.started {
		return
	}
	tl.started = true
	tl.k.Every(tl.k.Now().Add(tl.period), tl.period, func() bool {
		if tl.stopped {
			return false
		}
		tl.sample()
		return true
	})
}

// Stop ends sampling at the next tick. A stopped registry keeps its
// recorded series and cannot be restarted.
func (tl *Telemetry) Stop() {
	if tl == nil {
		return
	}
	tl.stopped = true
}

// sample polls every probe once at the current kernel time.
func (tl *Telemetry) sample() {
	now := tl.k.Now()
	for i := range tl.probes {
		tl.probes[i].series.Add(now, tl.probes[i].gauge())
	}
}

// Series returns every registered series in registration order.
func (tl *Telemetry) Series() []*metrics.TimeSeries {
	if tl == nil {
		return nil
	}
	out := make([]*metrics.TimeSeries, len(tl.probes))
	for i := range tl.probes {
		out[i] = tl.probes[i].series
	}
	return out
}

// MergeSeries combines the series of several telemetry registries into
// one deterministic view, in argument order then registration order.
//
// This is the shard-safe telemetry design for partitioned simulations
// (sim.ParKernel): each shard owns a private registry on its own shard
// kernel — sampling stays single-threaded and lock-free, exactly as on
// the sequential kernel — and cross-shard aggregation happens once,
// host-side, after the shards have synchronized at a barrier. The
// merged ordering depends only on argument order, never on the worker
// count. Nil registries are skipped, so partitioned systems with
// telemetry enabled on a subset of shards need no guards.
func MergeSeries(registries ...*Telemetry) []*metrics.TimeSeries {
	var out []*metrics.TimeSeries
	for _, tl := range registries {
		out = append(out, tl.Series()...)
	}
	return out
}
