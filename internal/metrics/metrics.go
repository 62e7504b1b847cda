// Package metrics provides lightweight measurement containers used by
// the Quicksand simulator and the experiment harness: time series,
// fixed-width bucket series (for goodput/utilization timelines),
// histograms, and counters.
//
// All containers are designed for single-threaded use from within the
// deterministic simulation, so they need no locking.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Point is a timestamped sample.
type Point struct {
	At    sim.Time
	Value float64
}

// TimeSeries is an append-only sequence of timestamped samples. Samples
// must be appended in non-decreasing time order.
type TimeSeries struct {
	Name   string
	points []Point
}

// NewTimeSeries creates an empty named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{Name: name} }

// Add appends a sample. It panics if t is before the previous sample.
func (s *TimeSeries) Add(t sim.Time, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].At {
		panic(fmt.Sprintf("metrics: out-of-order sample at %v (last %v) in %q", t, s.points[n-1].At, s.Name))
	}
	s.points = append(s.points, Point{At: t, Value: v})
}

// Points returns the underlying samples (not a copy; do not mutate).
func (s *TimeSeries) Points() []Point { return s.points }

// At returns the value in effect at time t, treating the series as a
// step function (last sample at or before t). ok is false before the
// first sample.
func (s *TimeSeries) At(t sim.Time) (v float64, ok bool) {
	i := sort.Search(len(s.points), func(i int) bool { return s.points[i].At > t })
	if i == 0 {
		return 0, false
	}
	return s.points[i-1].Value, true
}

// BucketSeries accumulates values into fixed-width time buckets. It is
// the container behind goodput/throughput timelines: each Add(t, v)
// adds v into the bucket containing t.
type BucketSeries struct {
	Width   time.Duration
	buckets []float64
}

// NewBucketSeries creates a bucket series with the given bucket width.
func NewBucketSeries(width time.Duration) *BucketSeries {
	if width <= 0 {
		panic("metrics: bucket width must be positive")
	}
	return &BucketSeries{Width: width}
}

// Add accumulates v into the bucket containing time t.
func (b *BucketSeries) Add(t sim.Time, v float64) {
	if t < 0 {
		panic("metrics: negative time")
	}
	idx := int(int64(t) / int64(b.Width))
	for len(b.buckets) <= idx {
		b.buckets = append(b.buckets, 0)
	}
	b.buckets[idx] += v
}

// Bucket returns the accumulated value of bucket i (0 beyond the end).
func (b *BucketSeries) Bucket(i int) float64 {
	if i < 0 || i >= len(b.buckets) {
		return 0
	}
	return b.buckets[i]
}

// Histogram keeps the running mean and maximum of a stream of samples.
// The sum adds the samples in the order they were observed.
type Histogram struct {
	n   int
	sum float64
	max float64
}

// observe records one sample.
func (h *Histogram) observe(v float64) {
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds()) }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Counter is a monotonically increasing count. It is single-threaded
// like every other container here: use SharedCounter for counts that
// multiple partitioned-simulation shards bump concurrently.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Addn adds n (which must be non-negative) to the counter.
func (c *Counter) Addn(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.n += n
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// SharedCounter is a monotonically increasing count safe for concurrent
// increments from multiple host goroutines. The partitioned simulation
// kernel (sim.ParKernel) executes shards on parallel workers, so
// counters that aggregate across shards — cross-shard calls, bytes over
// partition boundaries — must be atomic; shard-local counters should
// stay plain Counters. Atomic increments commute, so totals are
// deterministic at any worker count even though increment interleaving
// is not.
type SharedCounter struct {
	n atomic.Int64
}

// Inc adds one to the counter.
func (c *SharedCounter) Inc() { c.n.Add(1) }

// Addn adds n (which must be non-negative) to the counter.
func (c *SharedCounter) Addn(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.n.Add(n)
}

// Value returns the current count.
func (c *SharedCounter) Value() int64 { return c.n.Load() }

// EWMA is an exponentially weighted moving average: each observation
// folds in with weight alpha. The first observation seeds the average
// directly, so short-lived series are not biased toward zero. Plain
// float state updated from kernel context — deterministic.
type EWMA struct {
	alpha float64
	v     float64
	n     int64
}

// NewEWMA creates an average with the given smoothing factor
// (0 < alpha <= 1; larger tracks faster).
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: EWMA alpha out of (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average.
func (e *EWMA) Observe(v float64) {
	if e.n == 0 {
		e.v = v
	} else {
		e.v += e.alpha * (v - e.v)
	}
	e.n++
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.v }

// Count returns how many samples have been observed.
func (e *EWMA) Count() int64 { return e.n }

// Reset discards all state, as after a migration that changes the
// thing being averaged.
func (e *EWMA) Reset() { e.v, e.n = 0, 0 }
