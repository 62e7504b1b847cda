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
}

// NewTelemetry creates a sampling registry with the given cadence.
func NewTelemetry(k *sim.Kernel, period time.Duration) *Telemetry {
	if period <= 0 {
		period = time.Millisecond
	}
	return &Telemetry{k: k, period: period}
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
		tl.sample()
		return true
	})
}

// sample polls every probe once at the current kernel time.
func (tl *Telemetry) sample() {
	now := tl.k.Now()
	for i := range tl.probes {
		tl.probes[i].series.Add(now, tl.probes[i].gauge())
	}
}
