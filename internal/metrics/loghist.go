package metrics

import (
	"fmt"
	"math/bits"
	"strings"
)

// LogHistogram is a fixed-shape log-scale latency histogram: power-of-two
// exponent ranges subdivided into 2^logSubBits linear sub-buckets
// (HDR-histogram style), over an int64 nanosecond domain.
//
// It exists for open-loop serving workloads that observe millions of
// latencies online: Record is allocation-free (a pure index computation
// into a fixed counts array), quantile queries never retain or sort
// samples, and the memory footprint is a small constant regardless of
// sample count. The price is bounded relative error: every sample lands
// in a bucket whose width is at most 2^-logSubBits of its lower bound,
// so any quantile is within RelError (~3.1%) of the exact order
// statistic.
//
// All state is plain integers updated single-threaded from shard
// context, so per-shard histograms recorded under a sim.ParKernel are
// deterministic at any worker count, and Merge — integer addition in
// caller-chosen order — is deterministic regardless of how many workers
// produced the inputs (the obs.MergeSeries pattern: record shard-local,
// aggregate once at a barrier).
type LogHistogram struct {
	Name string

	counts [logBuckets]uint64
	count  uint64
	sum    int64 // exact integer sum: merge order cannot perturb it
	min    int64
	max    int64
}

// Histogram shape constants. Values below 2^logSubBits ns are exact
// (one bucket per nanosecond); above, each power of two is split into
// 2^logSubBits sub-buckets. Values at or above 2^logMaxExp ns (~9.2
// minutes) clamp into the final overflow bucket.
const (
	logSubBits = 5 // 32 sub-buckets per power of two
	logMaxExp  = 39
	logSub     = 1 << logSubBits
	// Exponent groups 5..logMaxExp-1 each contribute logSub buckets
	// after the exact sub-logSub range, plus one overflow bucket.
	logBuckets = (logMaxExp-logSubBits+1)*logSub + 1
)

// RelError is the worst-case relative error of a quantile query for
// non-overflowed samples: bucket width over bucket lower bound.
const RelError = 1.0 / logSub

// NewLogHistogram creates an empty named log-scale histogram.
func NewLogHistogram(name string) *LogHistogram {
	return &LogHistogram{Name: name}
}

// logIndex maps a nanosecond value to its bucket. Negative values clamp
// to bucket 0; values >= 2^logMaxExp clamp to the overflow bucket.
func logIndex(v int64) int {
	if v < logSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e <= v < 2^(e+1)
	if e >= logMaxExp {
		return logBuckets - 1
	}
	sub := int(uint64(v)>>(e-logSubBits)) - logSub
	return (e-logSubBits+1)*logSub + sub
}

// logLower returns the inclusive lower bound of bucket idx.
func logLower(idx int) int64 {
	if idx < logSub {
		return int64(idx)
	}
	g := idx >> logSubBits
	sub := idx & (logSub - 1)
	e := g + logSubBits - 1
	return (int64(1) << e) + int64(sub)<<(e-logSubBits)
}

// logWidth returns the width of bucket idx.
func logWidth(idx int) int64 {
	if idx < logSub {
		return 1
	}
	e := idx>>logSubBits + logSubBits - 1
	return int64(1) << (e - logSubBits)
}

// Record adds one nanosecond sample. Zero allocations.
func (h *LogHistogram) Record(ns int64) {
	h.counts[logIndex(ns)]++
	h.count++
	h.sum += ns
	if h.count == 1 || ns < h.min {
		h.min = ns
	}
	if ns > h.max {
		h.max = ns
	}
}

// Count returns the number of recorded samples.
func (h *LogHistogram) Count() uint64 { return h.count }

// Sum returns the exact sum of all samples in nanoseconds.
func (h *LogHistogram) Sum() int64 { return h.sum }

// Mean returns the exact arithmetic mean in nanoseconds (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the exact smallest sample in nanoseconds (0 when empty).
func (h *LogHistogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest sample in nanoseconds (0 when empty).
func (h *LogHistogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Overflowed returns the number of samples clamped into the overflow
// bucket (at or above 2^logMaxExp ns).
func (h *LogHistogram) Overflowed() uint64 { return h.counts[logBuckets-1] }

// Quantile returns the q-th quantile (0 <= q <= 1) in nanoseconds using
// nearest-rank over the cumulative bucket counts; the returned value is
// the matched bucket's midpoint, clamped to the exact observed min/max
// so Quantile(0) and Quantile(1) are exact. Returns 0 when empty.
func (h *LogHistogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic("metrics: quantile out of range [0, 1]")
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum uint64
	for i := 0; i < logBuckets; i++ {
		cum += h.counts[i]
		if cum > rank {
			if i == logBuckets-1 {
				// Overflow bucket: its midpoint is meaningless, but the
				// exact max is known.
				return h.max
			}
			v := logLower(i) + logWidth(i)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// QuantileMS returns Quantile(q) converted to milliseconds.
func (h *LogHistogram) QuantileMS(q float64) float64 {
	return float64(h.Quantile(q)) / 1e6
}

// CountAbove returns the number of samples whose bucket lies entirely
// at or above ns (an under-estimate by at most one bucket's worth of
// samples; exact when ns is a bucket boundary).
func (h *LogHistogram) CountAbove(ns int64) uint64 {
	idx := logIndex(ns)
	if logLower(idx) < ns {
		idx++ // partial bucket: exclude it
	}
	var n uint64
	for i := idx; i < logBuckets; i++ {
		n += h.counts[i]
	}
	return n
}

// Merge adds o's samples into h. Both histograms share the package's
// fixed bucket shape, so merging is pure integer addition: the result
// is byte-identical regardless of the worker count that produced the
// inputs, and independent of merge associativity (though callers should
// still merge in a fixed shard order so Name/min/max tie-breaks are
// stable).
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Reset zeroes every bucket so the histogram can be reused — the SLO
// monitor folds each window into one recycled histogram instead of
// allocating per window. The name is kept.
func (h *LogHistogram) Reset() {
	h.counts = [logBuckets]uint64{}
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// MergeLogHistograms merges hs (in argument order) into a fresh
// histogram with the given name. Nil entries are skipped.
func MergeLogHistograms(name string, hs ...*LogHistogram) *LogHistogram {
	out := NewLogHistogram(name)
	for _, h := range hs {
		if h != nil {
			out.Merge(h)
		}
	}
	return out
}

// Snapshot returns the histogram's deterministic state: every non-empty
// bucket as (index, count) pairs plus the exact count/sum/min/max. Two
// histograms that recorded the same samples — in any order, under any
// worker count — produce identical snapshots, so snapshots are directly
// comparable with reflect.DeepEqual in determinism harnesses.
type LogSnapshot struct {
	Buckets []int
	Counts  []uint64
	Count   uint64
	Sum     int64
	Min     int64
	Max     int64
}

// Snapshot captures the histogram's current state.
func (h *LogHistogram) Snapshot() LogSnapshot {
	s := LogSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, i)
			s.Counts = append(s.Counts, c)
		}
	}
	return s
}

// String renders a one-line summary: count, mean, and tail quantiles.
func (h *LogHistogram) String() string {
	var b strings.Builder
	name := h.Name
	if name == "" {
		name = "loghist"
	}
	fmt.Fprintf(&b, "%s: n=%d mean=%.3fms p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms",
		name, h.count, h.Mean()/1e6,
		h.QuantileMS(0.50), h.QuantileMS(0.99), h.QuantileMS(0.999),
		float64(h.Max())/1e6)
	return b.String()
}
