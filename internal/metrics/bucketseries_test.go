package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// bucketAdd is one Add call.
type bucketAdd struct {
	at sim.Time
	n  int64
}

// randomAdds is n seeded adds at times in [0, maxT) of counts in [1, maxN].
func randomAdds(seed int64, n int, maxT sim.Time, maxN int64) []bucketAdd {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bucketAdd, n)
	for i := range out {
		out[i] = bucketAdd{sim.Time(rng.Int63n(int64(maxT))), 1 + rng.Int63n(maxN)}
	}
	return out
}

// bucketStreams are the streams every BucketSeries check runs over.
var bucketStreams = []struct {
	name  string
	width time.Duration
	span  sim.Time
	adds  []bucketAdd
}{
	{"empty", time.Millisecond, sim.Time(10 * time.Millisecond), nil},
	{"a few by hand", time.Millisecond, sim.Time(5 * time.Millisecond), []bucketAdd{
		{0, 1}, {sim.Time(500 * time.Microsecond), 2}, {sim.Time(time.Millisecond), 4}, {sim.Time(5 * time.Millisecond), 8}}},
	{"past the span", 10, 95, []bucketAdd{{94, 1}, {95, 2}, {99, 4}, {100, 8}, {1 << 40, 16}, {3, 32}}},
	{"out of order", 7, 60, randomAdds(3, 40, 70, 5)},
	{"unit adds", 100, 65535, randomAdds(4, 600, 65536, 1)},
	{"large counts", time.Microsecond, sim.Time(50 * time.Microsecond), randomAdds(5, 200, sim.Time(50*time.Microsecond), 1<<40)},
}

// bucketRanges are the [i, j) ranges a check reads of an n-bucket
// series: every range when n is small, else the whole series, the empty
// and inverted ones, and seeded ranges that may stick out of either end.
func bucketRanges(rng *rand.Rand, n int) [][2]int {
	var rs [][2]int
	if n <= 12 {
		for i := -1; i <= n+1; i++ {
			for j := -1; j <= n+1; j++ {
				rs = append(rs, [2]int{i, j})
			}
		}
		return rs
	}
	rs = append(rs, [2]int{0, n}, [2]int{n, n}, [2]int{5, 2}, [2]int{-3, n + 3}, [2]int{n - 1, n})
	for k := 0; k < 12; k++ {
		rs = append(rs, [2]int{rng.Intn(n+4) - 2, rng.Intn(n+4) - 2})
	}
	return rs
}

// checkBucketReads holds every read of b over the ranges to the same
// read of want, a plain []int64 of the counts.
func checkBucketReads(t *testing.T, rng *rand.Rand, when string, b *BucketSeries, want []int64) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", when, b.Len(), len(want))
	}
	for _, r := range bucketRanges(rng, len(want)) {
		i, j := r[0], r[1]
		var sum int64
		var view []float64
		for k := max(i, 0); k < min(j, len(want)); k++ {
			sum += want[k]
			view = append(view, float64(want[k]))
		}
		mean := 0.0
		if len(view) > 0 {
			mean = float64(sum) / float64(len(view))
		}
		if got := b.Sum(i, j); got != sum {
			t.Fatalf("%s: Sum(%d, %d) = %d, want %d", when, i, j, got, sum)
		}
		if got := b.Mean(i, j); got != mean {
			t.Fatalf("%s: Mean(%d, %d) = %v, want %v", when, i, j, got, mean)
		}
		if got := b.Floats(i, j); len(got) != len(view) || (len(view) > 0 && !reflect.DeepEqual(got, view)) {
			t.Fatalf("%s: Floats(%d, %d) = %v, want %v", when, i, j, got, view)
		}
		// Thresholds: nothing, each count in the range and just above it,
		// and more than any.
		mins := []float64{0, float64(sum) + 1}
		for _, v := range view {
			mins = append(mins, v, v+0.5)
		}
		for _, m := range mins {
			first := -1
			for k, v := range view {
				if v >= m {
					first = max(i, 0) + k
					break
				}
			}
			if got := b.First(i, j, m); got != first {
				t.Fatalf("%s: First(%d, %d, %v) = %d, want %d", when, i, j, m, got, first)
			}
		}
	}
}

// checkBucketSeries plays adds into a series of the given width and span
// and, after every add, holds its reads to a brute-force []int64 that
// keeps the adds inside the span; then holds the whole record to the
// Merge, in any order, of the stream cut into one to four parts, and to
// what a series of half the span keeps of it; and Add to zero
// allocations.
func checkBucketSeries(t *testing.T, seed int64, width time.Duration, span sim.Time, adds []bucketAdd) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBucketSeries(width, span)
	want := make([]int64, int64(span)/int64(width)+1)
	checkBucketReads(t, rng, "new", &b, want)
	for k, a := range adds {
		b.Add(a.at, a.n)
		if i := int64(a.at) / int64(width); i < int64(len(want)) {
			want[i] += a.n
		}
		checkBucketReads(t, rng, fmt.Sprintf("after %d adds", k+1), &b, want)
	}

	for k := 1; k <= 4; k++ {
		parts := make([]BucketSeries, k)
		for i := range parts {
			parts[i] = NewBucketSeries(width, span)
		}
		for _, a := range adds {
			parts[rng.Intn(k)].Add(a.at, a.n)
		}
		for trial := 0; trial < 6; trial++ {
			merged := NewBucketSeries(width, span)
			for _, i := range rng.Perm(k) {
				merged.Merge(&parts[i])
			}
			if !reflect.DeepEqual(merged, b) {
				t.Fatalf("%d parts merged %v, whole %v", k, merged.buckets, b.buckets)
			}
		}
	}

	short := NewBucketSeries(width, span/2)
	short.Merge(&b)
	if got, keep := short.Floats(0, short.Len()), b.Floats(0, short.Len()); !reflect.DeepEqual(got, keep) {
		t.Fatalf("merged into half the span: %v, want %v", got, keep)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		for _, a := range adds {
			b.Add(a.at, a.n)
		}
	}); allocs != 0 {
		t.Fatalf("Add allocates: %v allocs/run", allocs)
	}
}

// runBucketStream runs checkBucketSeries over the named stream.
func runBucketStream(t *testing.T, name string) {
	t.Helper()
	for i, c := range bucketStreams {
		if c.name == name {
			checkBucketSeries(t, int64(i), c.width, c.span, c.adds)
			return
		}
	}
	t.Fatalf("no stream %q", name)
}

func TestBucketSeriesMatchesCounts(t *testing.T) {
	for _, c := range bucketStreams {
		t.Run(c.name, func(t *testing.T) { runBucketStream(t, c.name) })
	}
}

// The two tests below predate the fixed-span series and kept their
// names; each is one row of bucketStreams.

func TestBucketSeries(t *testing.T) { runBucketStream(t, "a few by hand") }

func TestBucketSeriesTotalProperty(t *testing.T) { runBucketStream(t, "unit adds") }

func TestBucketSeriesPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero width":    func() { NewBucketSeries(0, 10) },
		"negative span": func() { NewBucketSeries(1, -1) },
		"negative time": func() { b := NewBucketSeries(10, 100); b.Add(-1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
