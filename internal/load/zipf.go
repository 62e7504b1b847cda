package load

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Zipf samples ranks in [0, n) with P(rank=i) ∝ 1/(i+1)^theta. A draw
// below the head cut (the zipfHead most popular ranks) is exact: it
// inverts the pmf's cumulative sums, a table buildZipf fills with the
// same summation zeta starts with. Past the cut it uses Gray's
// rejection-free inversion (the "quickly generating billion-record
// synthetic databases" generator, as adopted by YCSB), a handful of
// float operations against precomputed constants, on Gray's own tail:
// the pmf's tail mass is mapped linearly onto the uniforms Gray sends
// past the cut. Gray's density is the pmf's within a constant factor
// far from the head, and the map supplies that factor; on the head
// itself Gray draws rank 2 about 20% too often at theta 0.99, and its
// CDF at the cut is above the pmf's. So a skewed popularity
// distribution over tens of millions of keys costs one table of at most
// zipfHead sums, and no allocation per draw.
//
// Gray's inversion raises x to alpha = 1/(1−theta). For every skew in
// use (0.9, 0.99, 0.75, 0.5) alpha is within 1e-12 of an integer, and
// rank takes that power by repeated squaring, not math.Pow's Exp and
// Log.
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
	// head[i] is Σ_{j=1..i+1} j^-theta, for the first min(n, zipfHead)
	// ranks: rank i is drawn when head[i-1] <= u·zetan < head[i].
	head []float64
	// guide[⌊u·zetan·perStep⌋] is the first rank whose head sum passes
	// the start of u's bucket: a head draw scans from there.
	guide   []uint16
	perStep float64
	// cutU is Gray's uniform at the cut, the least that it maps to a
	// rank past it; tailStep is (1 − cutU)/(zetan − head[cut−1]), so a
	// tail draw u·zetan in [head[cut−1], zetan) maps onto [cutU, 1).
	cutU, tailStep float64
	// k and guard are the integer-power fast path: k is the integer
	// alpha rounds to (0 when alpha is not within 1e-12 of one), guard
	// the relative distance from an integer inside which rank falls back
	// to math.Pow.
	k     uint64
	guard float64
}

// zipfHead is the head cut: the ranks drawn by exact inversion.
const zipfHead = 1024

// Fast-path limits: alpha may be this far from its integer k, and k at
// most this large. The distance bounds the guard (under 6.5e-11 of a
// rank); the power bounds the squarings (2·log2(1024) = 20 roundings).
const (
	powFracMax = 1e-12
	powIntMax  = 1024
)

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
			float64((math.Pow(fn, -theta)-math.Pow(k, -theta))/2)
	}
	return sum
}

// zipfKey names one sampler: a Zipf is a pure function of this pair.
type zipfKey struct {
	n     uint64
	theta float64
}

// zipfMemo holds every sampler this process has built, zipfKey →
// *Zipf. It has no eviction and no size cap on purpose: an entry is at
// most ~10 KB (the head table and its guide) and costs a full zeta
// summation (≈ 3.5 ms at n ≥ zetaExactMax) to create, so the table
// cannot grow faster than about 3 MB per CPU-second spent filling it.
var zipfMemo sync.Map

// zipfBuilds counts buildZipf calls, for the test that a repeated pair
// is summed once.
var zipfBuilds atomic.Int64

// buildZipf is the un-memoised constructor: two zeta summations, the
// head table, and the constants derived from them.
func buildZipf(n uint64, theta float64) *Zipf {
	zipfBuilds.Add(1)
	z := &Zipf{n: n, theta: theta, head: make([]float64, min(n, zipfHead))}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	// The head's sums are added in zeta's order, so the last is zeta's
	// partial sum there, bit for bit.
	var sum float64
	for i := range z.head {
		sum += math.Pow(float64(i+1), -theta)
		z.head[i] = sum
	}
	z.perStep = float64(len(z.head)) / sum
	z.guide = make([]uint16, len(z.head)+1)
	i := 0
	for j := range z.guide {
		for i < len(z.head)-1 && z.head[i] <= float64(j)/z.perStep {
			i++
		}
		z.guide[j] = uint16(i)
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	if n > zipfHead {
		z.cutU = 1 - (1-math.Pow(zipfHead/float64(n), 1-theta))/z.eta
		z.tailStep = (1 - z.cutU) / (z.zetan - sum)
	}
	// Split alpha as math.Pow does: Pow(x, alpha) is Exp(yf·Log(x)) times
	// x^yi by repeated squaring, with yf moved into (-0.5, 0.5].
	yi, yf := math.Modf(z.alpha)
	if yf > 0.5 {
		yf--
		yi++
	}
	if math.Abs(yf) < powFracMax && yi <= powIntMax {
		// 64·|yf| covers x^yf (|ln x| < 44, see rank); 2⁻⁴⁰ covers the
		// roundings, a few ulps (2⁻⁵²) each.
		z.k = uint64(yi)
		z.guard = float64(64*math.Abs(yf)) + 0x1p-40
	}
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

// Sample draws one rank in [0, n); rank 0 is the most popular. O(1),
// zero allocations.
func (z *Zipf) Sample(rng *rand.Rand) uint64 {
	return z.rank(rng.Float64())
}

// rank maps a uniform u in [0, 1) to its rank. Below the head cut it
// is the first i with u·zetan < head[i]. Past it (and when the head
// holds every rank, past it only by a rounding of u·zetan), it is
// Gray's rank of u's image on Gray's tail.
func (z *Zipf) rank(u float64) uint64 {
	uz := float64(u * z.zetan)
	h := z.head
	if uz < h[len(h)-1] {
		// The guide's start is within a rounding of the bucket's; the
		// scan is exact from any start.
		i := int(z.guide[int(uz*z.perStep)])
		for i > 0 && uz < h[i-1] {
			i--
		}
		for uz >= h[i] {
			i++
		}
		return uint64(i)
	}
	if z.n <= zipfHead {
		return z.n - 1
	}
	return z.gray(z.cutU + float64((uz-h[len(h)-1])*z.tailStep))
}

// gray is Gray's ⌊n·x^alpha⌋ for a uniform g in [cutU, 1), with
// x = eta·g − eta + 1, clamped to [zipfHead, n−1] against roundings.
//
// With an integer k, v = n·x^k differs from n·Pow(x, alpha) only by the
// factor x^(alpha−k), within |alpha−k|·|ln x| of 1, and by the roundings
// of the two products (a few ulps each). A rank of 2 or more has
// x^alpha ≥ 2/n, so |ln x| ≤ (1−theta)·ln(n/2) < 44 and the two differ
// by less than guard·v. When v is farther than that from an integer,
// both floor to the same rank; inside that band, and for an alpha with
// no k, gray evaluates math.Pow itself. Every rank past the cut is
// therefore the one n·Pow(x, alpha) gives on the same host
// (TestZipfRankMatchesPow).
func (z *Zipf) gray(g float64) uint64 {
	x := float64(z.eta*g) - z.eta + 1
	if z.k != 0 {
		p, s := 1.0, x
		for i := z.k; i != 0; i >>= 1 {
			if i&1 != 0 {
				p *= s
			}
			s *= s
		}
		v := float64(float64(z.n) * p)
		r := uint64(v)
		if f, band := v-float64(r), z.guard*v; f > band && 1-f > band {
			return max(min(r, z.n-1), zipfHead)
		}
	}
	return max(min(uint64(float64(z.n)*math.Pow(x, z.alpha)), z.n-1), zipfHead)
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
