package metrics

import (
	"math"
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

func TestTimeSeriesMean(t *testing.T) {
	s := NewTimeSeries("x")
	s.Add(0, 0)
	s.Add(10, 10)
	// step: 0 on [0,10), 10 on [10,20) -> mean over [0,20) = 5
	if got := s.mean(0, 20); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// window fully in second step
	if got := s.mean(12, 18); got != 10 {
		t.Errorf("Mean = %v, want 10", got)
	}
	// empty window
	if got := s.mean(10, 10); got != 0 {
		t.Errorf("Mean on empty window = %v, want 0", got)
	}
}

func TestTimeSeriesMax(t *testing.T) {
	s := NewTimeSeries("x")
	s.Add(0, 1)
	s.Add(10, 7)
	s.Add(20, 3)
	if got := s.max(5, 25); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := s.max(15, 16); got != 7 { // step value at window start
		t.Errorf("Max = %v, want 7 (step at from)", got)
	}
}

func TestTimeSeriesFirstCrossing(t *testing.T) {
	s := NewTimeSeries("x")
	s.Add(0, 1)
	s.Add(10, 5)
	s.Add(20, 9)
	at, ok := s.firstCrossing(0, 100, func(v float64) bool { return v >= 5 })
	if !ok || at != 10 {
		t.Errorf("firstCrossing = %v,%v, want 10,true", at, ok)
	}
	at, ok = s.firstCrossing(15, 100, func(v float64) bool { return v >= 5 })
	if !ok || at != 15 {
		t.Errorf("firstCrossing from mid-step = %v,%v, want 15,true", at, ok)
	}
	if _, ok := s.firstCrossing(0, 100, func(v float64) bool { return v > 100 }); ok {
		t.Error("firstCrossing found impossible predicate")
	}
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
	if b.Bucket(2) != 0 || b.Bucket(99) != 0 {
		t.Error("empty buckets should be 0")
	}
	if b.total() != 15 {
		t.Errorf("total = %v, want 15", b.total())
	}
	if b.rate(1) != 4000 { // 4 per ms = 4000/s
		t.Errorf("rate(1) = %v, want 4000", b.rate(1))
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

// Property: BucketSeries.total equals the sum of inserted values, and
// bucket assignment matches integer division.
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
		if b.total() != want {
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

// Property: TimeSeries.Mean of a constant series is that constant.
func TestTimeSeriesConstantMeanProperty(t *testing.T) {
	f := func(v float64, nRaw uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e300 {
			return true // v*dt would overflow float64; out of modeled domain
		}
		n := int(nRaw%20) + 1
		s := NewTimeSeries("c")
		times := make([]int64, n)
		for i := range times {
			times[i] = int64(i) * 17
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for _, tt := range times {
			s.Add(sim.Time(tt), v)
		}
		got := s.mean(0, sim.Time(times[n-1]+100))
		return math.Abs(got-v) < 1e-9*math.Max(1, math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFirstCrossingEdgeCases covers the satellite's edge matrix: empty
// series, a single point, a degenerate from==to window, and windows
// that miss every sample.
func TestFirstCrossingEdgeCases(t *testing.T) {
	above := func(bound float64) func(float64) bool {
		return func(v float64) bool { return v > bound }
	}

	empty := NewTimeSeries("empty")
	if at, ok := empty.firstCrossing(0, 100, above(0)); ok {
		t.Errorf("empty series: firstCrossing = %v,true, want !ok", at)
	}

	one := NewTimeSeries("one")
	one.Add(50, 3)
	if at, ok := one.firstCrossing(0, 100, above(2)); !ok || at != 50 {
		t.Errorf("single point in window: got %v,%v, want 50,true", at, ok)
	}
	if _, ok := one.firstCrossing(0, 40, above(2)); ok {
		t.Error("single point after window reported a crossing")
	}
	// After the sample the series holds its value: the step function
	// already satisfies pred at `from`.
	if at, ok := one.firstCrossing(60, 100, above(2)); !ok || at != 60 {
		t.Errorf("step value at from: got %v,%v, want 60,true", at, ok)
	}
	if _, ok := one.firstCrossing(60, 100, above(5)); ok {
		t.Error("pred never holds but a crossing was reported")
	}

	s := NewTimeSeries("s")
	s.Add(10, 1)
	s.Add(20, 5)
	// from==to degenerates to a point query on the step function.
	if at, ok := s.firstCrossing(20, 20, above(2)); !ok || at != 20 {
		t.Errorf("from==to at sample: got %v,%v, want 20,true", at, ok)
	}
	if at, ok := s.firstCrossing(25, 25, above(2)); !ok || at != 25 {
		t.Errorf("from==to between samples: got %v,%v, want 25,true", at, ok)
	}
	if _, ok := s.firstCrossing(15, 15, above(2)); ok {
		t.Error("from==to before the crossing reported one")
	}
	// Window entirely before any sample.
	if _, ok := s.firstCrossing(0, 5, above(0)); ok {
		t.Error("window before first sample reported a crossing")
	}
}

// TestBucketSeriesRateEdgeCases covers rate on out-of-range and
// negative indices, plus the empty series.
func TestBucketSeriesRateEdgeCases(t *testing.T) {
	b := NewBucketSeries("good", 100*1e6) // 100ms buckets
	if got := b.rate(0); got != 0 {
		t.Errorf("empty series rate(0) = %v, want 0", got)
	}
	b.Add(sim.Time(50*1e6), 10)  // bucket 0
	b.Add(sim.Time(150*1e6), 30) // bucket 1
	if got := b.rate(0); got != 100 {
		t.Errorf("rate(0) = %v, want 100 (10 per 0.1s)", got)
	}
	if got := b.rate(1); got != 300 {
		t.Errorf("rate(1) = %v, want 300", got)
	}
	for _, i := range []int{-1, -100, 2, 1000} {
		if got := b.rate(i); got != 0 {
			t.Errorf("out-of-range rate(%d) = %v, want 0", i, got)
		}
	}
}
