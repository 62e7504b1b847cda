// Package metrics provides lightweight measurement containers used by
// the Quicksand simulator and the experiment harness: time series,
// fixed-width bucket series (for goodput/utilization timelines),
// histograms with percentiles, and counters.
//
// All containers are designed for single-threaded use from within the
// deterministic simulation, so they need no locking.
package metrics

import (
	"fmt"
	"math"
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

// Len returns the number of samples.
func (s *TimeSeries) Len() int { return len(s.points) }

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

// Mean returns the time-weighted mean of the step function over
// [from, to). It returns 0 when the window is empty or degenerate.
func (s *TimeSeries) Mean(from, to sim.Time) float64 {
	if to <= from || len(s.points) == 0 {
		return 0
	}
	var area float64
	cur, have := s.At(from)
	prev := from
	for _, pt := range s.points {
		if pt.At <= from {
			continue
		}
		if pt.At >= to {
			break
		}
		if have {
			area += cur * float64(pt.At-prev)
		}
		cur, have = pt.Value, true
		prev = pt.At
	}
	if have {
		area += cur * float64(to-prev)
	}
	return area / float64(to-from)
}

// Max returns the maximum sample value over [from, to], considering the
// step value at from as well.
func (s *TimeSeries) Max(from, to sim.Time) float64 {
	max := math.Inf(-1)
	if v, ok := s.At(from); ok {
		max = v
	}
	for _, pt := range s.points {
		if pt.At < from || pt.At > to {
			continue
		}
		if pt.Value > max {
			max = pt.Value
		}
	}
	if math.IsInf(max, -1) {
		return 0
	}
	return max
}

// FirstCrossing returns the earliest time in [from, to] at which the
// step function satisfies pred, scanning sample transitions. ok is false
// if pred never holds in the window.
func (s *TimeSeries) FirstCrossing(from, to sim.Time, pred func(v float64) bool) (sim.Time, bool) {
	if v, haveV := s.At(from); haveV && pred(v) {
		return from, true
	}
	for _, pt := range s.points {
		if pt.At < from {
			continue
		}
		if pt.At > to {
			break
		}
		if pred(pt.Value) {
			return pt.At, true
		}
	}
	return 0, false
}

// BucketSeries accumulates values into fixed-width time buckets. It is
// the container behind goodput/throughput timelines: each Add(t, v)
// adds v into the bucket containing t.
type BucketSeries struct {
	Name    string
	Width   time.Duration
	buckets []float64
}

// NewBucketSeries creates a bucket series with the given bucket width.
func NewBucketSeries(name string, width time.Duration) *BucketSeries {
	if width <= 0 {
		panic("metrics: bucket width must be positive")
	}
	return &BucketSeries{Name: name, Width: width}
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

// NumBuckets returns the number of materialized buckets.
func (b *BucketSeries) NumBuckets() int { return len(b.buckets) }

// Values returns all bucket values (not a copy).
func (b *BucketSeries) Values() []float64 { return b.buckets }

// Total returns the sum across all buckets.
func (b *BucketSeries) Total() float64 {
	var sum float64
	for _, v := range b.buckets {
		sum += v
	}
	return sum
}

// Rate returns bucket i's value expressed per second.
func (b *BucketSeries) Rate(i int) float64 {
	return b.Bucket(i) / b.Width.Seconds()
}

// Histogram collects unordered samples and reports distribution
// statistics. Percentile queries sort lazily and incrementally: the
// container keeps a sorted prefix, and a query after k new
// observations sorts only the k-sample tail and merges it in — it
// never re-sorts samples that were already in order. Repeated queries
// with no intervening Observe touch nothing at all.
type Histogram struct {
	Name      string
	vals      []float64
	sortedLen int       // vals[:sortedLen] is sorted
	scratch   []float64 // reusable tail buffer for the in-place merge

	// White-box counters for the no-per-call-sort guarantee:
	// tailSorts is how many times a query found unsorted samples;
	// tailSorted is how many samples those sorts covered in total.
	tailSorts  int
	tailSorted int
}

// NewHistogram creates an empty named histogram.
func NewHistogram(name string) *Histogram { return &Histogram{Name: name} }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.vals = append(h.vals, v)
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.vals) }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range h.vals {
		sum += v
	}
	return sum / float64(len(h.vals))
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() float64 {
	h.ensureSorted()
	if len(h.vals) == 0 {
		return 0
	}
	return h.vals[0]
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	h.ensureSorted()
	if len(h.vals) == 0 {
		return 0
	}
	return h.vals[len(h.vals)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank on the sorted samples. It returns 0 when empty.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.vals) == 0 {
		return 0
	}
	if p < 0 || p > 100 {
		panic("metrics: percentile out of range")
	}
	h.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(h.vals))))
	if rank < 1 {
		rank = 1
	}
	return h.vals[rank-1]
}

// ensureSorted restores the fully-sorted invariant. Samples appended
// since the last query form an unsorted tail: sort just that tail,
// copy it to a reusable scratch buffer, and merge the two sorted runs
// backwards in place. Cost is O(k log k + n) for k new samples rather
// than O(n log n) for the whole slice, and zero when nothing changed.
func (h *Histogram) ensureSorted() {
	n := len(h.vals)
	if h.sortedLen == n {
		return
	}
	tail := h.vals[h.sortedLen:]
	sort.Float64s(tail)
	h.tailSorts++
	h.tailSorted += len(tail)
	if h.sortedLen > 0 {
		if cap(h.scratch) < len(tail) {
			h.scratch = make([]float64, len(tail))
		}
		s := h.scratch[:len(tail)]
		copy(s, tail)
		i, j, k := h.sortedLen-1, len(s)-1, n-1
		for j >= 0 {
			if i >= 0 && h.vals[i] > s[j] {
				h.vals[k] = h.vals[i]
				i--
			} else {
				h.vals[k] = s[j]
				j--
			}
			k--
		}
	}
	h.sortedLen = n
}

// Counter is a monotonically increasing count. It is single-threaded
// like every other container here: use SharedCounter for counts that
// multiple partitioned-simulation shards bump concurrently.
type Counter struct {
	Name string
	n    int64
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
	Name string
	n    atomic.Int64
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
