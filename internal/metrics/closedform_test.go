package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestLogHistogramQuantileWithinRelError: for uniform, exponential and
// bimodal samples, Quantile(q) at q ∈ {0.5, 0.9, 0.99, 0.999} is within
// the documented relative error, relError = 1/32, of the exact nearest-
// rank order statistic of the sorted samples.
//
// The tolerance does not depend on the sample size: the histogram's
// cumulative counts find exactly the bucket that holds the rank-th
// sample, and the bucket's midpoint is within half its width — at most
// 1/64 of the bucket's lower bound — of every value in it, so the law is
// deterministic, not statistical. 200,000 samples a distribution put
// q = 0.999 200 samples from the maximum, where the clamp to the exact
// max does not reach.
//
// Hand mutation this fails on (tried): logLower placing group g's buckets
// one power of two up (e := g + logSubBits).
func TestLogHistogramQuantileWithinRelError(t *testing.T) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1))
	ns := func(x float64) int64 { return int64(math.Round(x)) }
	for _, d := range []struct {
		name string
		draw func() int64
	}{
		{"uniform 0–10 ms", func() int64 { return ns(rng.Float64() * 10e6) }},
		{"exponential mean 1 ms", func() int64 { return ns(rng.ExpFloat64() * 1e6) }},
		{"bimodal 90% exp 200 µs, 10% 50 ms ± 5 ms", func() int64 {
			if rng.Float64() < 0.9 {
				return ns(rng.ExpFloat64() * 200e3)
			}
			return ns(50e6 + rng.NormFloat64()*5e6)
		}},
	} {
		h := NewLogHistogram(d.name)
		samples := make([]int64, n)
		for i := range samples {
			samples[i] = d.draw()
			h.Record(samples[i])
		}
		slices.Sort(samples)
		worst := 0.0
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := samples[min(int(q*n), n-1)]
			got := h.Quantile(q)
			err := math.Abs(float64(got-exact)) / float64(exact)
			if err > relError {
				t.Errorf("%s: Quantile(%v) = %d, exact %d: relative error %.4f > 1/32", d.name, q, got, exact, err)
			}
			worst = max(worst, err)
		}
		t.Logf("%s: largest relative error %.5f", d.name, worst)
	}
}
