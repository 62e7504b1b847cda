// Package metrics provides lightweight measurement containers used by
// the Quicksand simulator and the experiment harness: time series,
// fixed-width bucket series (for goodput/utilization timelines), exact
// latency summaries, histograms, and counters.
//
// All containers are designed for single-threaded use from within the
// deterministic simulation, so they need no locking.
package metrics

import (
	"fmt"
	"sort"
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

// BucketSeries is the one goodput timeline: exact integer counts in
// fixed-width buckets, sized once for a span. Reads take a bucket-index
// range [i, j), clipped to the series. Integer sums do not depend on
// the order counts arrive or series merge, and read exactly as floats.
type BucketSeries struct {
	Width   time.Duration
	buckets []int64
}

// NewBucketSeries makes a series of span/width + 1 buckets, one for every
// time in [0, span]. The bucket slice is its one allocation.
func NewBucketSeries(width time.Duration, span sim.Time) BucketSeries {
	if width <= 0 || span < 0 {
		panic("metrics: bucket width must be positive and span non-negative")
	}
	return BucketSeries{Width: width, buckets: make([]int64, int64(span)/int64(width)+1)}
}

// Add adds n into the bucket holding t; a t past the span is dropped.
// Zero allocations.
func (b *BucketSeries) Add(t sim.Time, n int64) {
	if t < 0 {
		panic("metrics: negative time")
	}
	if i := int64(t) / int64(b.Width); i < int64(len(b.buckets)) {
		b.buckets[i] += n
	}
}

// Len returns the number of buckets.
func (b *BucketSeries) Len() int { return len(b.buckets) }

// window returns the buckets of [i, j) that the series holds.
func (b *BucketSeries) window(i, j int) []int64 {
	i, j = max(i, 0), min(j, len(b.buckets))
	if i >= j {
		return nil
	}
	return b.buckets[i:j]
}

// Sum returns the total count of the buckets in [i, j).
func (b *BucketSeries) Sum(i, j int) int64 {
	var s int64
	for _, v := range b.window(i, j) {
		s += v
	}
	return s
}

// Mean returns the mean count of the buckets in [i, j), 0 when the
// series holds none of them.
func (b *BucketSeries) Mean(i, j int) float64 {
	if n := len(b.window(i, j)); n > 0 {
		return float64(b.Sum(i, j)) / float64(n)
	}
	return 0
}

// First returns the index of the first bucket in [i, j) whose count is
// at least min, or -1 when none is.
func (b *BucketSeries) First(i, j int, min float64) int {
	i = max(i, 0)
	for k, v := range b.window(i, j) {
		if float64(v) >= min {
			return i + k
		}
	}
	return -1
}

// Merge adds o's counts, of a series of the same width, into b bucket
// by bucket; o's buckets past b's span are dropped.
func (b *BucketSeries) Merge(o *BucketSeries) {
	for i, v := range o.buckets[:min(len(o.buckets), len(b.buckets))] {
		b.buckets[i] += v
	}
}

// Floats returns the counts of the buckets in [i, j) as a new slice,
// the form a plotted series takes.
func (b *BucketSeries) Floats(i, j int) []float64 {
	w := b.window(i, j)
	out := make([]float64, len(w))
	for k, v := range w {
		out[k] = float64(v)
	}
	return out
}

// Summary is the exact record of a latency stream: the sample count
// and the sum, min and max in integer nanoseconds. Integer sums do not
// depend on the order samples arrive or records merge, so a mean read
// from a Summary is the same however the stream was cut. The zero value
// is ready to use.
type Summary struct {
	count uint64
	sum   int64
	min   int64
	max   int64 // starts at 0, so a stream of negative samples leaves it 0
}

// Record adds one nanosecond sample. Zero allocations.
func (s *Summary) Record(ns int64) {
	s.count++
	s.sum += ns
	if s.count == 1 || ns < s.min {
		s.min = ns
	}
	if ns > s.max {
		s.max = ns
	}
}

// merge adds o's samples into s.
func (s *Summary) merge(o *Summary) {
	if o.count == 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
}

// Count returns the number of recorded samples.
func (s *Summary) Count() uint64 { return s.count }

// Mean returns the exact arithmetic mean in nanoseconds (0 when empty).
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Max returns the largest sample in nanoseconds (0 when empty).
func (s *Summary) Max() int64 { return s.max }

// Counter is a monotonically increasing count. It is single-threaded
// like every other container here.
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
		e.v += float64(e.alpha * (v - e.v))
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
