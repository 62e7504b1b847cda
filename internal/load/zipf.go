package load

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Zipf samples ranks in [0, n) with P(rank=i) ∝ 1/(i+1)^theta in O(1)
// per sample using Gray's rejection-free inversion (the "quickly
// generating billion-record synthetic databases" generator, as adopted
// by YCSB). All per-sample work is a handful of float operations
// against precomputed constants — no tables, no allocations — so a
// skewed popularity distribution over tens of millions of keys costs
// the same as one over a hundred.
//
// A Zipf is immutable after construction and holds no RNG: the stream
// is injected per call, so one shared Zipf serves every shard of a
// partitioned simulation — and, through NewZipf's memo, every tenant
// and every run of the process that asks for the same (n, theta) —
// while each shard draws from its own deterministic RNG.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// zetaExactMax bounds the exact harmonic summation; beyond it the tail
// is closed with an Euler–Maclaurin integral correction, making
// construction O(zetaExactMax) for any n (relative error < 1e-8 — far
// below the generator's own discretization).
const zetaExactMax = 1 << 16

// zeta computes the generalized harmonic number H_{n,theta} =
// Σ_{i=1..n} i^-theta: exactly for small n, with an integral-corrected
// tail for large n.
func zeta(n uint64, theta float64) float64 {
	exact := n
	if exact > zetaExactMax {
		exact = zetaExactMax
	}
	var sum float64
	for i := uint64(1); i <= exact; i++ {
		sum += math.Pow(float64(i), -theta)
	}
	if n > exact {
		// Euler–Maclaurin: Σ_{k+1..n} i^-θ ≈ ∫_k^n x^-θ dx + (n^-θ - k^-θ)/2.
		k, fn := float64(exact), float64(n)
		sum += (math.Pow(fn, 1-theta)-math.Pow(k, 1-theta))/(1-theta) +
			(math.Pow(fn, -theta)-math.Pow(k, -theta))/2
	}
	return sum
}

// zipfKey names one sampler: a Zipf is a pure function of this pair.
type zipfKey struct {
	n     uint64
	theta float64
}

// zipfMemo holds every sampler this process has built, zipfKey →
// *Zipf. It has no eviction and no size cap on purpose: an entry is tens
// of bytes of constants and costs a full zeta summation (≈ 3.5 ms at n ≥
// zetaExactMax) to create, so the table cannot grow faster than about
// 15 KB per CPU-second spent filling it.
var zipfMemo sync.Map

// zipfBuilds counts buildZipf calls, for the test that a repeated pair
// is summed once.
var zipfBuilds atomic.Int64

// buildZipf is the un-memoised constructor: two zeta summations and the
// constants derived from them.
func buildZipf(n uint64, theta float64) *Zipf {
	zipfBuilds.Add(1)
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// NewZipf returns the sampler over n ranks with skew theta in (0, 1) —
// 0.99 is the YCSB default ("hotspot" skew). Construction cost is
// bounded by zetaExactMax regardless of n, but that bound is 65,536
// math.Pow calls, ≈ 3.5 ms of host time — as long as a short scenario
// run — so the constructor memoises: the first call for a pair builds
// the sampler, every later one, from any goroutine, returns that same
// *Zipf. What a hit returns is what the summation returned, so the
// memo cannot change a sampled rank. Two goroutines missing on one pair
// at once both sum (to the same bits) and one result is kept.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("load: Zipf needs at least one rank")
	}
	if !(theta > 0 && theta < 1) { // also rejects NaN, which no key would ever match
		panic("load: Zipf skew theta must be in (0, 1)")
	}
	key := zipfKey{n, theta}
	if z, ok := zipfMemo.Load(key); ok {
		return z.(*Zipf)
	}
	z, _ := zipfMemo.LoadOrStore(key, buildZipf(n, theta))
	return z.(*Zipf)
}

// N returns the number of ranks.
func (z *Zipf) N() uint64 { return z.n }

// Sample draws one rank in [0, n); rank 0 is the most popular. O(1),
// zero allocations.
func (z *Zipf) Sample(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.zeta2 {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// ScrambleKey maps a popularity rank to a pseudo-random but stable key
// in the full uint64 space (splitmix64 finalizer). Zipf ranks are
// ordered by popularity; scrambling spreads the hot head uniformly
// across shards and stores while keeping rank→key deterministic, which
// is how YCSB-style "scrambled zipfian" keyspaces work.
func ScrambleKey(rank uint64) uint64 {
	x := rank + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
