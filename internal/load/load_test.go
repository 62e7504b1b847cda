package load

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCurveRateAndMax(t *testing.T) {
	c := Piecewise(
		CurvePoint{At: 0, Rate: 100},
		CurvePoint{At: sim.Time(10 * time.Second), Rate: 300},
		CurvePoint{At: sim.Time(20 * time.Second), Rate: 50},
	)
	if got := c.Rate(sim.Time(5 * time.Second)); math.Abs(got-200) > 1e-9 {
		t.Fatalf("Rate(5s) = %v, want 200", got)
	}
	if got := c.Rate(sim.Time(30 * time.Second)); got != 50 {
		t.Fatalf("Rate past end = %v, want 50", got)
	}
	if got := c.MaxRate(0, sim.Time(30*time.Second)); got != 300 {
		t.Fatalf("MaxRate = %v, want 300 (interior peak)", got)
	}
	// Window that excludes the peak: max is at a window edge.
	if got := c.MaxRate(sim.Time(12*time.Second), sim.Time(14*time.Second)); got <= 200 || got >= 300 {
		t.Fatalf("MaxRate(12s,14s) = %v, want in (200,300)", got)
	}
	if got := c.Mean(0, sim.Time(10*time.Second)); math.Abs(got-200) > 1e-9 {
		t.Fatalf("Mean(0,10s) = %v, want 200", got)
	}
}

func TestCurveValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":      func() { Piecewise() },
		"negative":   func() { Piecewise(CurvePoint{At: 0, Rate: -1}) },
		"nonincreas": func() { Piecewise(CurvePoint{At: 5, Rate: 1}, CurvePoint{At: 5, Rate: 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSampledShapes(t *testing.T) {
	horizon := sim.Time(10 * time.Second)
	d := Diurnal(1000, 0.5, 10*time.Second)
	c := Sampled(horizon, 100*time.Millisecond, d)
	// The sine peaks at t=period/4 with rate base*(1+amp).
	peak := c.Rate(sim.Time(2500 * time.Millisecond))
	if math.Abs(peak-1500) > 15 {
		t.Fatalf("diurnal peak = %v, want ~1500", peak)
	}
	sp := Spike(sim.Time(2*time.Second), time.Second, time.Second, time.Second, 4)
	if sp(sim.Time(time.Second)) != 1 || sp(sim.Time(9*time.Second)) != 1 {
		t.Fatal("spike multiplier must be 1 outside the event")
	}
	if got := sp(sim.Time(3500 * time.Millisecond)); got != 4 {
		t.Fatalf("spike hold = %v, want 4", got)
	}
	r := Ramp(0, 100, 10*time.Second)
	if got := r(sim.Time(5 * time.Second)); math.Abs(got-50) > 1e-9 {
		t.Fatalf("ramp midpoint = %v, want 50", got)
	}
}

func TestArrivalsRateAccuracy(t *testing.T) {
	// Over a long horizon the thinned process must produce ~∫λ dt
	// arrivals (within a few sigma of the Poisson mean).
	rng := rand.New(rand.NewSource(42))
	c := Sampled(sim.Time(60*time.Second), 250*time.Millisecond,
		Diurnal(2000, 0.6, 20*time.Second))
	a := NewArrivals(c, rng)
	var n int
	window := sim.Time(50 * time.Millisecond)
	for from := sim.Time(0); from < sim.Time(60*time.Second); from += window {
		n += len(a.Draw(from, from+window))
	}
	mean := c.Mean(0, sim.Time(60*time.Second)) * 60
	sigma := math.Sqrt(mean)
	if math.Abs(float64(n)-mean) > 5*sigma {
		t.Fatalf("arrivals = %d, expected %v ± %v", n, mean, 5*sigma)
	}
}

func TestArrivalsDeterministicAndOrdered(t *testing.T) {
	c := Constant(50000)
	a1 := NewArrivals(c, rand.New(rand.NewSource(9)))
	a2 := NewArrivals(c, rand.New(rand.NewSource(9)))
	w := sim.Time(10 * time.Millisecond)
	for from := sim.Time(0); from < sim.Time(100*time.Millisecond); from += w {
		d1 := append([]sim.Time(nil), a1.Draw(from, from+w)...)
		d2 := append([]sim.Time(nil), a2.Draw(from, from+w)...)
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("same seed produced different arrivals in window at %v", from)
		}
		for i, at := range d1 {
			if at < from || at >= from+w {
				t.Fatalf("arrival %v outside window [%v,%v)", at, from, from+w)
			}
			if i > 0 && at < d1[i-1] {
				t.Fatal("arrivals not sorted")
			}
		}
	}
}

func TestArrivalsZeroAllocSteadyState(t *testing.T) {
	c := Constant(100000)
	a := NewArrivals(c, rand.New(rand.NewSource(1)))
	w := sim.Time(10 * time.Millisecond)
	from := sim.Time(0)
	// Warm the buffer to steady-state size.
	for i := 0; i < 50; i++ {
		a.Draw(from, from+w)
		from += w
	}
	allocs := testing.AllocsPerRun(200, func() {
		a.Draw(from, from+w)
		from += w
	})
	if allocs != 0 {
		t.Fatalf("Draw allocates at steady state: %v allocs/run", allocs)
	}
}

func TestZipfDistribution(t *testing.T) {
	const n = 1000
	z := NewZipf(n, 0.99)
	rng := rand.New(rand.NewSource(5))
	const draws = 200000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.Sample(rng)
		if r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 must dominate: expected share is 1/zeta(n,0.99) ≈ 13%.
	share0 := float64(counts[0]) / draws
	if share0 < 0.10 || share0 > 0.17 {
		t.Fatalf("rank-0 share = %v, want ~0.13", share0)
	}
	// Monotone-ish decay across decades.
	if counts[0] < counts[10] || counts[10] < counts[100] {
		t.Fatalf("popularity not decaying: %d, %d, %d", counts[0], counts[10], counts[100])
	}
	// Theoretical head probability check for rank 0: 1/zetan, from the
	// un-memoised summation rather than the sampler under test.
	want := 1 / zeta(n, 0.99)
	if math.Abs(share0-want) > 0.02 {
		t.Fatalf("rank-0 share %v deviates from theory %v", share0, want)
	}
}

func TestZipfHugeKeyspaceConstruction(t *testing.T) {
	// 10M+ keys must construct fast (bounded zeta work) and still
	// produce in-range, skewed samples.
	z := NewZipf(20_000_000, 0.9)
	rng := rand.New(rand.NewSource(2))
	var head int
	const draws = 50000
	for i := 0; i < draws; i++ {
		r := z.Sample(rng)
		if r >= 20_000_000 {
			t.Fatalf("rank %d out of range", r)
		}
		if r < 100 {
			head++
		}
	}
	// With theta=0.9 the top-100 ranks carry a large share.
	if float64(head)/draws < 0.15 {
		t.Fatalf("head share = %v, keyspace not skewed", float64(head)/draws)
	}
}

func TestZetaTailApproximation(t *testing.T) {
	// The integral-corrected tail must agree with exact summation just
	// past the exact cutoff. zeta is the un-memoised function: NewZipf's
	// memo is not on this path.
	n := uint64(zetaExactMax + 50000)
	var exact float64
	for i := uint64(1); i <= n; i++ {
		exact += math.Pow(float64(i), -0.99)
	}
	approx := zeta(n, 0.99)
	if rel := math.Abs(approx-exact) / exact; rel > 1e-6 {
		t.Fatalf("zeta tail relative error %v", rel)
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := NewZipf(1_000_000, 0.99)
	r1 := rand.New(rand.NewSource(77))
	r2 := rand.New(rand.NewSource(77))
	for i := 0; i < 1000; i++ {
		if z.Sample(r1) != z.Sample(r2) {
			t.Fatal("same seed diverged")
		}
	}
}

func TestScrambleKeyStable(t *testing.T) {
	if ScrambleKey(1) == ScrambleKey(2) {
		t.Fatal("scramble collision on adjacent ranks")
	}
	if ScrambleKey(42) != ScrambleKey(42) {
		t.Fatal("scramble not deterministic")
	}
}

func TestSamplePathZeroAlloc(t *testing.T) {
	z := NewZipf(10_000_000, 0.99)
	rng := rand.New(rand.NewSource(21))
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += ScrambleKey(z.Sample(rng))
	})
	if allocs != 0 {
		t.Fatalf("sample path allocates: %v allocs/run", allocs)
	}
	_ = sink
}

func TestInjectorDeliversInOrder(t *testing.T) {
	k := sim.NewKernel(1)
	var got []Request
	inj := NewInjector(k, 5*time.Millisecond, func(r Request) {
		if r.At != k.Now() {
			t.Fatalf("request fired at %v, stamped %v", k.Now(), r.At)
		}
		got = append(got, r)
	})
	z := NewZipf(1000, 0.9)
	inj.AddTenant("a", Constant(40000), z)
	inj.AddTenant("b", Constant(20000), z)
	horizon := sim.Time(50 * time.Millisecond)
	inj.Start(0, horizon)
	k.Run()

	if len(got) == 0 {
		t.Fatal("no requests delivered")
	}
	if inj.Delivered() != uint64(len(got)) || inj.TotalGenerated() != inj.Delivered() {
		t.Fatalf("generated %d delivered %d handled %d",
			inj.TotalGenerated(), inj.Delivered(), len(got))
	}
	if inj.Windows() != 10 {
		t.Fatalf("windows = %d, want 10", inj.Windows())
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatal("requests delivered out of time order")
		}
	}
	// Tenant a offers ~2x tenant b's rate.
	ratio := float64(inj.Generated(0)) / float64(inj.Generated(1))
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("tenant rate ratio = %v, want ~2", ratio)
	}
	if inj.TenantName(0) != "a" || inj.TenantName(1) != "b" {
		t.Fatal("tenant names lost")
	}
}

// TestInjectorArrivalsStayOutOfTheHeap: a tenant's arrivals are drawn in
// time order and scheduled under increasing sequence numbers, so each one
// takes its stream's lane and none falls back to the heap. However many
// requests a window draws ahead, the heap holds the head of each stream
// and the next batch event.
func TestInjectorArrivalsStayOutOfTheHeap(t *testing.T) {
	k := sim.NewKernel(7)
	defer k.Close()
	const window = time.Millisecond
	var maxHeap, maxBehind int
	var atWindowStart uint64 // due at the instant they were drawn: the FIFO's, not a lane's
	inj := NewInjector(k, window, func(r Request) {
		st := k.QueueStats()
		maxHeap, maxBehind = max(maxHeap, st.Heap), max(maxBehind, st.Behind)
		if r.At%sim.Time(window) == 0 {
			atWindowStart++
		}
	})
	z := NewZipf(1000, 0.9)
	horizon := sim.Time(20 * window)
	inj.AddTenant("web", Sampled(horizon, window/4, Diurnal(300000, 0.3, 10*window)), z)
	inj.AddTenant("api", Constant(100000), z)
	inj.AddTenant("batch", Constant(20000), z)
	inj.Start(0, horizon)
	k.Run()

	st := k.QueueStats()
	if inj.Windows() != 20 || inj.Delivered() < 7000 || inj.Delivered() != inj.TotalGenerated() {
		t.Fatalf("%d windows, %d generated, %d delivered: want 20 windows of about 420 requests, all delivered",
			inj.Windows(), inj.TotalGenerated(), inj.Delivered())
	}
	if st.LaneFallbacks != 0 || st.LaneAppends+atWindowStart != inj.TotalGenerated() {
		t.Errorf("%d of %d arrivals took a lane (%d were due at once), %d fell back to the heap: want all and 0",
			st.LaneAppends, inj.TotalGenerated(), atWindowStart, st.LaneFallbacks)
	}
	if maxHeap > 3+1 || maxBehind < 300 {
		t.Errorf("heap reached %d entries with up to %d arrivals waiting behind lane heads: want at most tenants + 1, and a window's worth waiting",
			maxHeap, maxBehind)
	}
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	run := func() []Request {
		k := sim.NewKernel(123)
		var got []Request
		inj := NewInjector(k, 2*time.Millisecond, func(r Request) { got = append(got, r) })
		inj.AddTenant("a", Constant(30000), NewZipf(100000, 0.99))
		inj.Start(0, sim.Time(20*time.Millisecond))
		k.Run()
		return got
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same seed produced different request streams")
	}
}

func TestInjectorRespectsHorizon(t *testing.T) {
	k := sim.NewKernel(1)
	horizon := sim.Time(7 * time.Millisecond)
	inj := NewInjector(k, 2*time.Millisecond, func(r Request) {
		if r.At >= horizon {
			t.Fatalf("request at %v past horizon %v", r.At, horizon)
		}
	})
	inj.AddTenant("a", Constant(100000), NewZipf(1000, 0.5))
	inj.Start(0, horizon)
	end := k.Run()
	if end >= horizon+inj.window {
		t.Fatalf("kernel ran to %v, injector did not stop", end)
	}
}
