package load

import (
	"math"
	"math/rand"
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
	}
	if got.n != want.n {
		t.Fatalf("%s: n = %d, want %d", what, got.n, want.n)
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
