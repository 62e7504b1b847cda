package metrics

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestTimeSeriesAtStepFunction(t *testing.T) {
	s := NewTimeSeries("util")
	s.Add(10, 1.0)
	s.Add(20, 2.0)
	s.Add(30, 3.0)

	if _, ok := s.At(5); ok {
		t.Error("At before first sample should report !ok")
	}
	cases := []struct {
		at   sim.Time
		want float64
	}{{10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {100, 3}}
	for _, c := range cases {
		if v, ok := s.At(c.at); !ok || v != c.want {
			t.Errorf("At(%d) = %v,%v, want %v,true", c.at, v, ok, c.want)
		}
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewTimeSeries("x")
	s.Add(10, 1)
	s.Add(5, 2)
}

func TestBucketSeries(t *testing.T) {
	b := NewBucketSeries("goodput", time.Millisecond)
	b.Add(0, 1)
	b.Add(sim.Time(500*time.Microsecond), 2)
	b.Add(sim.Time(time.Millisecond), 4)
	b.Add(sim.Time(5*time.Millisecond), 8)
	if len(b.buckets) != 6 {
		t.Errorf("buckets = %d, want 6", len(b.buckets))
	}
	if b.Bucket(0) != 3 || b.Bucket(1) != 4 || b.Bucket(5) != 8 {
		t.Errorf("buckets = %v", b.buckets)
	}
	for _, i := range []int{2, 99, -1, -100} {
		if b.Bucket(i) != 0 {
			t.Errorf("Bucket(%d) = %v, want 0 (empty or out of range)", i, b.Bucket(i))
		}
	}
	if empty := NewBucketSeries("empty", time.Millisecond); empty.Bucket(0) != 0 {
		t.Errorf("empty series Bucket(0) = %v, want 0", empty.Bucket(0))
	}
}

func TestHistogramStats(t *testing.T) {
	h := NewHistogram("lat")
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.observe(v)
	}
	if h.Mean() != 3 || h.Max() != 5 {
		t.Errorf("Mean/Max = %v/%v, want 3/5", h.Mean(), h.Max())
	}
	h.observe(7)
	if h.Max() != 7 {
		t.Errorf("Max after a larger observation = %v, want 7", h.Max())
	}
	neg := NewHistogram("neg")
	neg.observe(-2)
	neg.observe(-1)
	if neg.Max() != -1 {
		t.Errorf("Max of negative samples = %v, want -1", neg.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram stats should be 0")
	}
}

// TestHistogramIncrementalMatchesFullSort cross-checks the running mean
// and max of an interleaved build, round by round, against recomputing
// them from every sample so far: the in-order sum and the top of a full
// sort.
func TestHistogramIncrementalMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram("x")
	var all []float64
	for round := 0; round < 20; round++ {
		n := rng.Intn(40) // including empty rounds
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			h.observe(v)
			all = append(all, v)
		}
		if len(all) == 0 {
			continue
		}
		var sum float64
		for _, v := range all {
			sum += v
		}
		sorted := append([]float64(nil), all...)
		sort.Float64s(sorted)
		if mean, max := sum/float64(len(all)), sorted[len(sorted)-1]; h.Mean() != mean || h.Max() != max {
			t.Fatalf("round %d: Mean/Max = %v/%v, full recomputation %v/%v", round, h.Mean(), h.Max(), mean, max)
		}
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram("d")
	h.ObserveDuration(1500 * time.Millisecond)
	if h.Mean() != 1.5 {
		t.Errorf("Mean = %v, want 1.5", h.Mean())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Addn(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Counter
	c.Addn(-1)
}

// Property: the buckets sum to the inserted values, and bucket
// assignment matches integer division.
func TestBucketSeriesTotalProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		b := NewBucketSeries("x", 100*time.Nanosecond)
		var want float64
		wantBuckets := map[int]float64{}
		for _, o := range offsets {
			t := sim.Time(o)
			b.Add(t, 1)
			want++
			wantBuckets[int(o/100)]++
		}
		var total float64
		for _, v := range b.buckets {
			total += v
		}
		if total != want {
			return false
		}
		for i, v := range wantBuckets {
			if b.Bucket(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
