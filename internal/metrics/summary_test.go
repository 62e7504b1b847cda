package metrics

import (
	"math/rand"
	"testing"
)

// randomStream is n seeded samples drawn uniformly from [lo, hi).
func randomStream(seed int64, n int, lo, hi int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + rng.Int63n(hi-lo)
	}
	return out
}

// summaryStreams are the streams every Summary check runs over.
var summaryStreams = []struct {
	name   string
	stream []int64
}{
	{"empty", nil},
	{"one sample", []int64{1234}},
	{"all equal", []int64{7, 7, 7, 7, 7}},
	{"out of order", []int64{5, 1, 3, 2, 4, 7}},
	{"a negative sample", []int64{300, -5, 90, 1 << 40}},
	{"only negative samples", []int64{-3, -9, -1}},
	{"latencies", randomStream(1, 1000, 1, 1e9)},
	{"around zero", randomStream(2, 257, -1e6, 1e6)},
}

// checkSummary holds a zero Summary to reading 0; after every sample of
// the stream, to the exact count, sum, min, max and mean recomputed from
// the samples so far and to the Summary a LogHistogram embeds after the
// same samples; the whole record to the merge, in any order, of the
// stream cut into parts; and Record to zero allocations.
func checkSummary(t *testing.T, seed int64, stream []int64) {
	t.Helper()
	var s, want Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatalf("zero Summary reads count %d, mean %v, max %d; want all 0", s.Count(), s.Mean(), s.Max())
	}
	h := NewLogHistogram("check")
	for i, v := range stream {
		s.Record(v)
		h.Record(v)
		want.count++
		want.sum += v
		if i == 0 || v < want.min {
			want.min = v
		}
		if v > want.max {
			want.max = v // from 0: a negative-only stream leaves 0
		}
		wantMean := float64(want.sum) / float64(want.count)
		if s != want || s.Count() != want.count || s.Max() != want.max || s.Mean() != wantMean {
			t.Fatalf("after %d samples: Summary %+v (mean %v), stream gives %+v (mean %v)", i+1, s, s.Mean(), want, wantMean)
		}
		if h.Summary != s {
			t.Fatalf("after %d samples: LogHistogram's Summary %+v, Summary %+v", i+1, h.Summary, s)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for k := 1; k <= 4; k++ {
		parts := make([]Summary, k)
		for _, v := range stream {
			parts[rng.Intn(k)].Record(v)
		}
		for trial := 0; trial < 6; trial++ {
			var merged Summary
			for _, i := range rng.Perm(k) {
				merged.merge(&parts[i])
			}
			if merged != s || merged.Mean() != s.Mean() {
				t.Fatalf("%d parts merged %+v (mean %v), whole %+v (mean %v)", k, merged, merged.Mean(), s, s.Mean())
			}
		}
	}

	if allocs := testing.AllocsPerRun(100, func() {
		for _, v := range stream {
			s.Record(v)
		}
	}); allocs != 0 {
		t.Fatalf("Record allocates: %v allocs/run", allocs)
	}
}

// runSummaryStream runs checkSummary over the named stream.
func runSummaryStream(t *testing.T, name string) {
	t.Helper()
	for i, c := range summaryStreams {
		if c.name == name {
			checkSummary(t, int64(i), c.stream)
			return
		}
	}
	t.Fatalf("no stream %q", name)
}

func TestSummaryMatchesStream(t *testing.T) {
	for _, c := range summaryStreams {
		t.Run(c.name, func(t *testing.T) { runSummaryStream(t, c.name) })
	}
}

// The three tests below predate Summary and kept their names; each is
// one row of summaryStreams.

func TestHistogramStats(t *testing.T) { runSummaryStream(t, "out of order") }

func TestHistogramEmpty(t *testing.T) { runSummaryStream(t, "empty") }

func TestHistogramIncrementalMatchesFullSort(t *testing.T) { runSummaryStream(t, "latencies") }
