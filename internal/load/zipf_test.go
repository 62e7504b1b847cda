package load

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// memoNs × memoThetas is the grid the memo is checked on: both sides
// of the exact/tail cutoff, the smallest keyspaces, the library default
// size and the 10M-key serving size.
var (
	memoNs     = []uint64{1, 2, 3, zetaExactMax - 1, zetaExactMax, zetaExactMax + 1, 1 << 20, 10_000_000}
	memoThetas = []float64{0.5, 0.75, 0.9, 0.99}
)

// sameBits fails unless got holds exactly the constants want does.
func sameBits(t *testing.T, what string, got, want *Zipf) {
	t.Helper()
	fields := []struct {
		name      string
		got, want float64
	}{
		{"theta", got.theta, want.theta},
		{"alpha", got.alpha, want.alpha},
		{"zetan", got.zetan, want.zetan},
		{"eta", got.eta, want.eta},
		{"zeta2", got.zeta2, want.zeta2},
		{"guard", got.guard, want.guard},
		{"cutU", got.cutU, want.cutU},
		{"tailStep", got.tailStep, want.tailStep},
	}
	if got.n != want.n || got.k != want.k {
		t.Fatalf("%s: n, k = %d, %d, want %d, %d", what, got.n, got.k, want.n, want.k)
	}
	if !slices.Equal(got.head, want.head) {
		t.Fatalf("%s n=%d theta=%g: head table differs from the un-memoised one", what, want.n, want.theta)
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s n=%d theta=%g: %s = %x (%v), un-memoised %x (%v)", what, want.n, want.theta,
				f.name, math.Float64bits(f.got), f.got, math.Float64bits(f.want), f.want)
		}
	}
}

// A memoised sampler carries bit-for-bit what the un-memoised
// summation returns, on the construction that fills the table and on
// the one that reads it.
func TestNewZipfMatchesUnmemoisedBitForBit(t *testing.T) {
	for _, n := range memoNs {
		for _, theta := range memoThetas {
			want := buildZipf(n, theta)
			if math.Float64bits(want.zetan) != math.Float64bits(zeta(n, theta)) {
				t.Fatalf("buildZipf(%d, %g).zetan is not zeta(n, theta)", n, theta)
			}
			first := NewZipf(n, theta)
			sameBits(t, "first construction", first, want)
			second := NewZipf(n, theta)
			sameBits(t, "second construction", second, want)
			if first != second {
				t.Fatalf("n=%d theta=%g: second construction built a new sampler", n, theta)
			}
		}
	}
}

// Two samplers asked for under one pair draw the same ranks from
// equally seeded RNGs, and the same ranks as an un-memoised sampler.
func TestNewZipfTwiceDrawsIdenticalStreams(t *testing.T) {
	const draws = 100_000
	a, b, ref := NewZipf(1<<20, 0.9), NewZipf(1<<20, 0.9), buildZipf(1<<20, 0.9)
	ra, rb, rr := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(41)), rand.New(rand.NewSource(41))
	for i := 0; i < draws; i++ {
		x, y, want := a.Sample(ra), b.Sample(rb), ref.Sample(rr)
		if x != want || y != want {
			t.Fatalf("draw %d: ranks %d and %d, un-memoised %d", i, x, y, want)
		}
	}
}

// A hundred constructions of one pair run the long summation once.
func TestNewZipfSumsAPairOnce(t *testing.T) {
	const n, theta = 1<<20 + 7, 0.8125 // a pair no other test constructs
	zipfMemo.Delete(zipfKey{n, theta}) // the table outlives a -count rerun
	before := zipfBuilds.Load()
	for i := 0; i < 100; i++ {
		NewZipf(n, theta)
	}
	if got := zipfBuilds.Load() - before; got != 1 {
		t.Fatalf("100 constructions of one pair ran the summation %d times, want 1", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { NewZipf(n, theta) }); allocs != 0 {
		t.Fatalf("a memo hit allocates %v objects, want 0", allocs)
	}
}

// Concurrent constructors (runpar, the P-sweep tests) agree on one
// sampler per pair; run under -race in CI.
func TestNewZipfConcurrent(t *testing.T) {
	pairs := []zipfKey{{1<<20 + 11, 0.9}, {1<<20 + 11, 0.99}, {70_001, 0.5}, {3, 0.75}}
	for _, p := range pairs { // start from misses on a -count rerun too
		zipfMemo.Delete(p)
	}
	const goroutines = 16
	got := make([][]*Zipf, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*Zipf, len(pairs))
			for i := range pairs {
				j := (i + g) % len(pairs) // stagger so misses collide
				got[g][j] = NewZipf(pairs[j].n, pairs[j].theta)
			}
		}(g)
	}
	wg.Wait()
	for i, p := range pairs {
		want := buildZipf(p.n, p.theta)
		for g := range got {
			if got[g][i] != got[0][i] {
				t.Fatalf("pair %v: goroutines %d and 0 hold different samplers", p, g)
			}
		}
		sameBits(t, "concurrent construction", got[0][i], want)
	}
}

// NaN passes both "theta <= 0" and "theta >= 1" as false and would
// never match a memo key; it is out of range like the rest.
func TestNewZipfRejectsOutOfRangeTheta(t *testing.T) {
	for _, theta := range []float64{0, 1, 1.5, -0.5, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(8, %v) did not panic", theta)
				}
			}()
			NewZipf(8, theta)
		}()
	}
}

// powRank is Sample with every power taken by math.Pow: the head by
// exact inversion (sort.Search over the same sums), the rest by Gray's
// inversion on its own tail. It is the reference every rank is held to.
func powRank(z *Zipf, u float64) uint64 {
	uz := u * z.zetan
	h := z.head
	if uz < h[len(h)-1] {
		return uint64(sort.Search(len(h), func(i int) bool { return uz < h[i] }))
	}
	if z.n <= zipfHead {
		return z.n - 1
	}
	g := z.cutU + float64((uz-h[len(h)-1])*z.tailStep)
	r := uint64(float64(z.n) * math.Pow(float64(z.eta*g)-z.eta+1, z.alpha))
	return max(min(r, z.n-1), zipfHead)
}

// rankPairs is the (n, theta) grid rank is checked on. The thetas are
// the three the traffic uses (0.9, the scenario default, with alpha
// 10; 0.99 and 0.75, ext-serve's, with alpha 100 and 4), an exact and a
// near-integer alpha (0.5: 2, 0.8: 5), and two with no fast path (0.3,
// 0.6); the ns run from the smallest keyspaces to 2⁴⁰. The three
// traffic pairs themselves ride along.
func rankPairs() []zipfKey {
	var pairs []zipfKey
	for _, theta := range []float64{0.9, 0.99, 0.75, 0.5, 0.8, 0.3, 0.6} {
		for _, n := range []uint64{3, 4, 1 << 20, 10_000_000, 1 << 40} {
			pairs = append(pairs, zipfKey{n, theta})
		}
	}
	return append(pairs, zipfKey{5_000_000, 0.9}, zipfKey{2_000_000, 0.75})
}

// boundaryU returns the u at which Gray's n·x^alpha is exactly rank v
// in real arithmetic, as near as float64 gets: x = (v/n)^(1−theta),
// Gray's uniform g = 1 − (1−x)/eta, and u the draw rank maps onto g
// (g itself when the head holds every rank).
func boundaryU(z *Zipf, v float64) float64 {
	x := math.Pow(v/float64(z.n), 1-z.theta)
	g := 1 - (1-x)/z.eta
	if z.n <= zipfHead {
		return g
	}
	return (z.head[len(z.head)-1] + (g-z.cutU)/z.tailStep) / z.zetan
}

// boundaryRanks returns the rank boundaries probed for z: 256 spread
// geometrically over [2, n] and 64 drawn at random, deduplicated, which
// is every boundary when n is small.
func boundaryRanks(z *Zipf, rng *rand.Rand) []float64 {
	n := float64(z.n)
	seen := map[float64]bool{}
	var vs []float64
	add := func(v float64) {
		if v >= 2 && v <= n && !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	for j := 0; j < 256; j++ {
		add(math.Round(2 * math.Pow(n/2, float64(j)/255)))
	}
	for j := 0; j < 64; j++ {
		add(math.Floor(2 + rng.Float64()*(n-2)))
	}
	return vs
}

// TestZipfRankMatchesPow: rank gives the rank powRank gives, for a
// million uniform draws on every pair of rankPairs and for every u
// within 40 ulps of each probed rank boundary, where the integer power
// and math.Pow are likeliest to floor differently. The boundary draws
// catch each of these hand mutations of gray and buildZipf:
//   - guard 0 (the fast path floors inside the band too): 72 and 426
//     mismatches at (2²⁰, 0.9) and (10⁷, 0.99), none at an exact alpha;
//   - no yi++ when yf > 0.5 (theta 0.99 squares to x^99, not x^100):
//     513,500 at (2²⁰, 0.99);
//   - no fallback (the fast floor is returned inside the band): 87 and
//     426.
//
// Ranks in the head table are drawn by neither power, so they are held
// to sort.Search over the same sums.
func TestZipfRankMatchesPow(t *testing.T) {
	const draws = 1_000_000
	for _, p := range rankPairs() {
		z := NewZipf(p.n, p.theta)
		rng := rand.New(rand.NewSource(int64(p.n) ^ int64(p.theta*1000)))
		var mismatches int
		check := func(u float64) {
			if got, want := z.rank(u), powRank(z, u); got != want {
				if mismatches < 5 {
					t.Errorf("n=%d theta=%g u=%v (%#x): rank %d, math.Pow %d",
						p.n, p.theta, u, math.Float64bits(u), got, want)
				}
				mismatches++
			}
		}
		for i := 0; i < draws; i++ {
			check(rng.Float64())
		}
		vs := boundaryRanks(z, rng)
		for _, v := range vs {
			u0 := boundaryU(z, v)
			check(u0)
			lo, hi := u0, u0
			for j := 0; j < 40; j++ {
				lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
				check(lo)
				if hi < 1 {
					check(hi)
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("n=%d theta=%g: %d ranks differ from math.Pow's", p.n, p.theta, mismatches)
		}
		if want := min(200, int(p.n)-1); len(vs) < want {
			t.Errorf("n=%d theta=%g: %d rank boundaries probed, want at least %d", p.n, p.theta, len(vs), want)
		}
		if wantFast := p.theta != 0.3 && p.theta != 0.6; (z.k != 0) != wantFast {
			t.Errorf("n=%d theta=%g: fast path k = %d, want one: %v", p.n, p.theta, z.k, wantFast)
		}
	}
}

// FuzzZipfRank: for any u, n and theta = thetaMilli/1000, rank is
// powRank. u is taken from uBits when they are a float in [0, 1), else
// from the top 53 bits.
func FuzzZipfRank(f *testing.F) {
	for _, p := range []zipfKey{{1 << 20, 0.9}, {10_000_000, 0.99}, {2_000_000, 0.75}, {3, 0.8}} {
		z := NewZipf(p.n, p.theta)
		for _, v := range []float64{2, 3, 1000, float64(p.n)} {
			if v > float64(p.n) {
				continue
			}
			u := boundaryU(z, v)
			for _, d := range []float64{0, 1e-16, -1e-16} {
				f.Add(math.Float64bits(u+d), p.n, uint16(p.theta*1000+0.5))
			}
		}
	}
	f.Add(uint64(0), uint64(1), uint16(1))
	f.Add(math.Float64bits(math.Nextafter(1, 0)), uint64(1<<40), uint16(999))
	f.Fuzz(func(t *testing.T, uBits, n uint64, thetaMilli uint16) {
		if n == 0 || thetaMilli == 0 || thetaMilli >= 1000 {
			t.Skip()
		}
		u := math.Float64frombits(uBits)
		if !(u >= 0 && u < 1) {
			u = float64(uBits>>11) / (1 << 53)
		}
		z := NewZipf(n, float64(thetaMilli)/1000)
		if got, want := z.rank(u), powRank(z, u); got != want {
			t.Fatalf("n=%d theta=%g u=%v (%#x): rank %d, math.Pow %d", n, z.theta, u, math.Float64bits(u), got, want)
		}
	})
}
