package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestLogIndexRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bucket bounds must tile the domain without gaps or overlap.
	for idx := 0; idx < logBuckets-1; idx++ {
		lo := logLower(idx)
		if got := logIndex(lo); got != idx {
			t.Fatalf("logIndex(logLower(%d)=%d) = %d", idx, lo, got)
		}
		hi := lo + logWidth(idx) - 1
		if got := logIndex(hi); got != idx {
			t.Fatalf("logIndex(upper %d of bucket %d) = %d", hi, idx, got)
		}
		if next := logLower(idx + 1); next != lo+logWidth(idx) {
			t.Fatalf("bucket %d ends at %d but bucket %d starts at %d",
				idx, lo+logWidth(idx), idx+1, next)
		}
	}
}

func TestLogHistogramQuantileAccuracy(t *testing.T) {
	// Against an exact sorted order statistic on small N, every quantile
	// must be within the documented relative error bound.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(500)
		samples := make([]int64, n)
		h := NewLogHistogram("acc")
		for i := range samples {
			// Log-uniform over ~1µs..10s, the latency range that matters.
			v := int64(1000 * (1 << uint(rng.Intn(24))))
			v += rng.Int63n(v)
			samples[i] = v
			h.Record(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			rank := int(q * float64(n))
			if rank >= n {
				rank = n - 1
			}
			exact := samples[rank]
			got := h.Quantile(q)
			lo := float64(exact) * (1 - relError)
			hi := float64(exact) * (1 + relError)
			if float64(got) < lo || float64(got) > hi {
				t.Fatalf("trial %d q=%v: got %d, exact %d, bound ±%.1f%%",
					trial, q, got, exact, relError*100)
			}
		}
		if h.min != samples[0] || h.Max() != samples[n-1] {
			t.Fatalf("min/max not exact: got %d/%d want %d/%d",
				h.min, h.Max(), samples[0], samples[n-1])
		}
	}
}

func TestLogHistogramMergeShardInvariant(t *testing.T) {
	// The same sample stream split across P shard-local histograms and
	// merged must produce byte-identical snapshots for every P — the
	// property the partitioned kernel's worker sweep relies on.
	const n = 10000
	rng := rand.New(rand.NewSource(11))
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = rng.Int63n(int64(5 * time.Second))
	}
	var snaps []LogSnapshot
	for _, p := range []int{1, 4, 8} {
		shards := make([]*LogHistogram, p)
		for i := range shards {
			shards[i] = NewLogHistogram("shard")
		}
		for i, v := range samples {
			shards[i%p].Record(v)
		}
		merged := MergeLogHistograms("merged", shards...)
		snaps = append(snaps, merged.Snapshot())
	}
	for i := 1; i < len(snaps); i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatalf("merge not shard-count-invariant: P=1 vs P=%d differ", []int{1, 4, 8}[i])
		}
	}
	if snaps[0].Count != n {
		t.Fatalf("merged count = %d, want %d", snaps[0].Count, n)
	}
}

func TestLogHistogramEmpty(t *testing.T) {
	h := NewLogHistogram("empty")
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 ||
		h.min != 0 || h.Max() != 0 || h.counts[logBuckets-1] != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// Merging an empty histogram must not disturb min/max.
	g := NewLogHistogram("g")
	g.Record(42)
	g.Merge(h)
	if g.min != 42 || g.Max() != 42 || g.Count() != 1 {
		t.Fatalf("merge with empty perturbed state: %+v", g.Snapshot())
	}
	// Merging into an empty histogram adopts the source's min.
	h.Merge(g)
	if h.min != 42 || h.Count() != 1 {
		t.Fatalf("merge into empty lost min: min=%d count=%d", h.min, h.Count())
	}
}

func TestLogHistogramOverflowAndClamps(t *testing.T) {
	h := NewLogHistogram("ovf")
	huge := int64(1) << 45 // far above 2^logMaxExp
	h.Record(huge)
	h.Record(-5) // negative clamps to bucket 0
	h.Record(0)
	if h.counts[logBuckets-1] != 1 {
		t.Fatalf("overflowed = %d, want 1", h.counts[logBuckets-1])
	}
	if h.min != -5 || h.Max() != huge {
		t.Fatalf("exact min/max lost: %d/%d", h.min, h.Max())
	}
	// Quantile(1) is clamped to the exact max even for overflowed samples.
	if h.Quantile(1) != huge {
		t.Fatalf("Quantile(1) = %d, want exact max %d", h.Quantile(1), huge)
	}
}

func TestLogHistogramQuantilePanics(t *testing.T) {
	h := NewLogHistogram("p")
	h.Record(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q out of range")
		}
	}()
	h.Quantile(1.5)
}

func TestLogHistogramRecordNoAllocs(t *testing.T) {
	h := NewLogHistogram("alloc")
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = rng.Int63n(int64(time.Second))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			h.Record(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("Record allocates: %v allocs/run", allocs)
	}
	q := testing.AllocsPerRun(100, func() {
		_ = h.Quantile(0.999)
	})
	if q != 0 {
		t.Fatalf("Quantile allocates: %v allocs/run", q)
	}
}
