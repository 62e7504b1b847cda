package load

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// zipfLaw is the Zipf law's measurement: draws ranks from sample and
// returns, over the top ranks, the chi-square statistic of the counts
// against the analytic pmf p(i) = (i+1)^-θ / H(n,θ), the z-scores of the
// heldRanks, and the rank whose count is furthest from its expectation
// in relative terms. top must pass the head cut.
func zipfLaw(n uint64, theta float64, draws, top int, sample func(*rand.Rand) uint64) (chi2 float64, z [len(heldRanks)]float64, worst int, ratio float64) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]float64, top)
	for i := 0; i < draws; i++ {
		if r := sample(rng); r < uint64(top) {
			counts[r]++
		}
	}
	h := zeta(n, theta)
	ratio = 1
	for i := range counts {
		p := math.Pow(float64(i+1), -theta) / h
		e := float64(draws) * p
		chi2 += (counts[i] - e) * (counts[i] - e) / e
		for j, r := range heldRanks {
			if i == r {
				z[j] = (counts[i] - e) / math.Sqrt(e*(1-p))
			}
		}
		if r := counts[i] / e; math.Abs(r-1) > math.Abs(ratio-1) {
			worst, ratio = i, r
		}
	}
	return chi2, z, worst, ratio
}

// heldRanks are the ranks zipfLaw scores alone: the two most popular,
// and the first past the head cut.
var heldRanks = [...]int{0, 1, zipfHead}

// exactZipf samples the analytic pmf by inverting its cumulative sum: the
// sampler zipfLaw is calibrated against. A draw past the top ranks only
// needs to land past them, so only their sums are kept.
func exactZipf(n uint64, theta float64, top int) func(*rand.Rand) uint64 {
	cdf := make([]float64, top)
	var s float64
	for i := range cdf {
		s += math.Pow(float64(i+1), -theta)
		cdf[i] = s
	}
	h := zeta(n, theta)
	return func(rng *rand.Rand) uint64 {
		return uint64(sort.SearchFloat64s(cdf, rng.Float64()*h))
	}
}

// TestZipfFrequenciesMatchPMF: at 10M draws over n = 1M ranks with the
// YCSB skew θ = 0.99, the counts of the top 2,048 ranks — the head
// table's 1,024 and as many past the cut — match the analytic pmf.
//
// Tolerances from the sample size: rank i's count is binomial(N, p(i)),
// so the chi-square statistic over k = 2,048 ranks has mean k and
// standard deviation √(2k) = 64; the bound is k + 6√(2k) = 2,432. Ranks
// 0, 1 and 1,024 are also held alone, each within 5 standard deviations
// (√(N·p(1−p)) ≈ 766, 564 and 26 draws).
//
// The law is shown sound on exactZipf, which it passes, and sharp on
// exactZipf at θ = 0.98, which it fails. Gray's inversion on every rank
// (Zipf before its head table) fails it too, drawing rank 2 about 20%
// too often; so does a head table with Gray's inversion of the same u
// past the cut, which draws rank 1,024 about 120 times too often.
func TestZipfFrequenciesMatchPMF(t *testing.T) {
	const (
		n     = 1_000_000
		theta = 0.99
		draws = 10_000_000
		top   = 2 * zipfHead
	)
	bound := top + 6*math.Sqrt(2*top)
	if testing.Short() {
		t.Skip("10M draws")
	}
	exact, _, _, _ := zipfLaw(n, theta, draws, top, exactZipf(n, theta, top))
	off, _, _, _ := zipfLaw(n, theta, draws, top, exactZipf(n, 0.98, top))
	t.Logf("exact inversion: chi-square %.0f at θ = 0.99, %.0f at θ = 0.98 (bound %.0f)", exact, off, bound)
	if exact > bound {
		t.Fatalf("the exact sampler fails the law: chi-square %.0f > %.0f", exact, bound)
	}
	if off <= bound {
		t.Fatalf("the law does not tell θ = 0.98 from 0.99: chi-square %.0f <= %.0f", off, bound)
	}
	z := NewZipf(n, theta)
	chi2, zs, worst, ratio := zipfLaw(n, theta, draws, top, z.Sample)
	t.Logf("Zipf.Sample: chi-square %.0f (bound %.0f), ranks %v at %.2f standard deviations", chi2, bound, heldRanks, zs)
	for i, v := range zs {
		if math.Abs(v) > 5 {
			t.Errorf("rank %d drawn %.1f standard deviations off the pmf", heldRanks[i], v)
		}
	}
	if chi2 > bound {
		t.Errorf("Zipf.Sample's counts of the top %d ranks are off the pmf: chi-square %.0f > %.0f; rank %d drawn %.3f× its probability",
			top, chi2, bound, worst, ratio)
	}
}

// injectorBuckets runs one tenant with intensity f through an Injector and
// returns its arrivals per bucket of width w over [0, horizon).
func injectorBuckets(f func(sim.Time) float64, horizon sim.Time, w time.Duration) []float64 {
	k := sim.NewKernel(1)
	defer k.Close()
	counts := make([]float64, int(horizon)/int(w))
	inj := NewInjector(k, 50*time.Millisecond, func(r Request) { counts[int(r.At)/int(w)]++ })
	inj.AddTenant("t", Sampled(horizon, time.Millisecond, f), NewZipf(1000, 0.99))
	inj.Start(0, horizon)
	k.Run()
	return counts
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// integrate returns ∫f over [a, b) in requests (f in requests a second),
// by Simpson's rule on 1 µs panels.
func integrate(f func(sim.Time) float64, a, b sim.Time) float64 {
	const h = sim.Time(time.Microsecond)
	var s float64
	for t := a; t < b; t += 2 * h {
		s += f(t) + 4*f(t+h) + f(t+2*h)
	}
	return s * float64(h) / 3 / float64(sim.Second)
}

// TestInjectorCountsMatchIntensity: an Injector's arrivals in each 10 ms
// bucket of a second match ∫λ over the bucket, for a diurnal cycle, a
// flash crowd and a ramp, drawn 50 ms at a time. Curves are sampled every millisecond, on every
// corner of the spike and the ramp and close enough to the sine (a
// relative error under 10⁻⁴) that ∫λ is taken from the analytic
// intensity.
//
// Tolerances from the sample size: bucket counts are Poisson with mean
// E = ∫λ (1,000 to 4,000 each), independent across buckets, so the
// chi-square statistic over the k = 100 buckets has mean k and standard
// deviation √(2k) ≈ 14; the bound is k + 6√(2k) ≈ 185.
//
// Hand mutations this fails on (each tried): candidates accepted without
// thinning; exponential gaps 5% too long; maxRate taking the window's
// edges only.
func TestInjectorCountsMatchIntensity(t *testing.T) {
	const horizon = sim.Second
	const w = 10 * time.Millisecond
	k := float64(int(horizon) / int(w))
	bound := k + 6*math.Sqrt(2*k)
	ms := func(n int) sim.Time { return sim.Time(n) * sim.Millisecond }
	// A crowd shorter than the injector's 50 ms window, inside one.
	spike := Spike(ms(310), 10*time.Millisecond, 10*time.Millisecond, 20*time.Millisecond, 4)
	for _, c := range []struct {
		name string
		f    func(sim.Time) float64
	}{
		{"diurnal", Diurnal(200_000, 0.9, 500*time.Millisecond)},
		{"spike", func(t sim.Time) float64 { return 100_000 * spike(t) }},
		{"ramp", Ramp(20_000, 400_000, 800*time.Millisecond)},
	} {
		counts := injectorBuckets(c.f, horizon, w)
		var chi2 float64
		for b, o := range counts {
			e := integrate(c.f, sim.Time(b)*sim.Time(w), sim.Time(b+1)*sim.Time(w))
			chi2 += (o - e) * (o - e) / e
		}
		t.Logf("%s: %.0f arrivals, chi-square %.1f over %.0f buckets (bound %.0f)", c.name, sum(counts), chi2, k, bound)
		if chi2 > bound {
			t.Errorf("%s: chi-square %.0f over %.0f buckets > %.0f", c.name, chi2, k, bound)
		}
	}
}
