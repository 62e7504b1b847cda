package load

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// rate evaluates the curve at t.
func (c Curve) rate(t sim.Time) float64 {
	r, _ := c.rateFrom(0, t)
	return r
}

// mean returns the time-weighted mean rate over [from, to) — the
// expected number of arrivals in the window divided by its length.
func (c Curve) mean(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var area float64
	prevT := from
	prevR := c.rate(from)
	for _, pt := range c.pts {
		if pt.At <= from {
			continue
		}
		if pt.At >= to {
			break
		}
		r := c.rate(pt.At)
		area += (prevR + r) / 2 * float64(pt.At-prevT)
		prevT, prevR = pt.At, r
	}
	area += (prevR + c.rate(to)) / 2 * float64(to-prevT)
	return area / float64(to-from)
}

// fullScanMaxRate is maxRate as it stood before the segment hint: every
// scan starts at the curve's first point.
func (c Curve) fullScanMaxRate(from, to sim.Time) float64 {
	max := c.rate(from)
	if r := c.rate(to); r > max {
		max = r
	}
	for _, pt := range c.pts {
		if pt.At <= from {
			continue
		}
		if pt.At >= to {
			break
		}
		if pt.Rate > max {
			max = pt.Rate
		}
	}
	return max
}

// TestMaxRateFromHintMatchesFullScan: over random curves and a
// time-ordered run of random windows, maxRate from the cursor Draw
// would hold, and from every other hint at or before from's segment,
// returns the full scan's maximum bit for bit.
func TestMaxRateFromHintMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 300; round++ {
		pts := make([]CurvePoint, 1+rng.Intn(40))
		at := sim.Time(rng.Intn(1000))
		for i := range pts {
			pts[i] = CurvePoint{At: at, Rate: rng.Float64() * 1000}
			if rng.Intn(5) == 0 {
				pts[i].Rate = 0
			}
			at += sim.Time(1 + rng.Intn(500))
		}
		c := piecewise(pts...)
		cursor := 0
		for from := sim.Time(0); from < at+500; {
			to := from + sim.Time(rng.Intn(400))
			want := c.fullScanMaxRate(from, to)
			_, seg := c.rateFrom(0, from)
			for i := 0; i <= seg; i++ {
				if got := c.maxRate(i, from, to); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("round %d [%v, %v] hint %d: maxRate %v, full scan %v", round, from, to, i, got, want)
				}
			}
			if got := c.maxRate(cursor, from, to); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d [%v, %v] cursor %d: maxRate %v, full scan %v", round, from, to, cursor, got, want)
			}
			if to > from { // Draw's cursor trails its last candidate, which is before to
				_, cursor = c.rateFrom(cursor, from+sim.Time(rng.Int63n(int64(to-from))))
			}
			from = to
		}
	}
}

func TestCurveRateAndMax(t *testing.T) {
	c := piecewise(
		CurvePoint{At: 0, Rate: 100},
		CurvePoint{At: sim.Time(10 * time.Second), Rate: 300},
		CurvePoint{At: sim.Time(20 * time.Second), Rate: 50},
	)
	if got := c.rate(sim.Time(5 * time.Second)); math.Abs(got-200) > 1e-9 {
		t.Fatalf("Rate(5s) = %v, want 200", got)
	}
	if got := c.rate(sim.Time(30 * time.Second)); got != 50 {
		t.Fatalf("Rate past end = %v, want 50", got)
	}
	if got := c.maxRate(0, 0, sim.Time(30*time.Second)); got != 300 {
		t.Fatalf("maxRate = %v, want 300 (interior peak)", got)
	}
	// Window that excludes the peak: max is at a window edge.
	if got := c.maxRate(0, sim.Time(12*time.Second), sim.Time(14*time.Second)); got <= 200 || got >= 300 {
		t.Fatalf("maxRate(12s,14s) = %v, want in (200,300)", got)
	}
	if got := c.mean(0, sim.Time(10*time.Second)); math.Abs(got-200) > 1e-9 {
		t.Fatalf("Mean(0,10s) = %v, want 200", got)
	}
}

func TestCurveValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":      func() { piecewise() },
		"negative":   func() { piecewise(CurvePoint{At: 0, Rate: -1}) },
		"nonincreas": func() { piecewise(CurvePoint{At: 5, Rate: 1}, CurvePoint{At: 5, Rate: 2}) },
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
	peak := c.rate(sim.Time(2500 * time.Millisecond))
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
	mean := c.mean(0, sim.Time(60*time.Second)) * 60
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
	// With theta=0.9 the top-100 ranks carry 14.5% of the pmf; 0.135 is
	// six standard deviations (0.16 points at 50k draws) below it.
	if float64(head)/draws < 0.135 {
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

// TestInjectorDeliversInOrder: the handler gets each window's requests at
// the window's start, every one inside the window, in (At, seq) order
// across the tenants, and all of them.
func TestInjectorDeliversInOrder(t *testing.T) {
	k := sim.NewKernel(1)
	const window = 5 * time.Millisecond
	var got []Request
	inj := NewInjector(k, window, func(r Request) {
		if now := k.Now(); now%sim.Time(window) != 0 || r.At < now || r.At >= now+sim.Time(window) {
			t.Fatalf("request at %v handed over at %v, want at the start of its %v window", r.At, now, window)
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
	if inj.TotalGenerated() != uint64(len(got)) {
		t.Fatalf("generated %d (%v by tenant), handled %d", inj.TotalGenerated(), inj.generated, len(got))
	}
	if inj.windows != 10 {
		t.Fatalf("windows = %d, want 10", inj.windows)
	}
	for i := 1; i < len(got); i++ {
		if a, b := got[i-1], got[i]; b.At < a.At || b.At == a.At && b.seq <= a.seq {
			t.Fatalf("request %d (at %v, seq %d) handed over after (at %v, seq %d): want (At, seq) order", i, b.At, b.seq, a.At, a.seq)
		}
	}
	// Tenant a offers ~2x tenant b's rate.
	ratio := float64(inj.generated[0]) / float64(inj.generated[1])
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("tenant rate ratio = %v, want ~2", ratio)
	}
}

// TestInjectorWindowIsOneEvent: an arrival is a sequence number, not an
// event, so 20 windows of about 420 requests from three tenants cost the
// kernel exactly the 20 batch events, and nothing waits in the queue
// beyond the next one.
func TestInjectorWindowIsOneEvent(t *testing.T) {
	k := sim.NewKernel(7)
	defer k.Close()
	const window = time.Millisecond
	handled := 0
	inj := NewInjector(k, window, func(Request) {
		handled++
		if n := k.Pending(); n > 1 {
			t.Fatalf("%d events pending while a window is handed over, want the next batch event alone", n)
		}
	})
	z := NewZipf(1000, 0.9)
	horizon := sim.Time(20 * window)
	inj.AddTenant("web", Sampled(horizon, window/4, Diurnal(300000, 0.3, 10*window)), z)
	inj.AddTenant("api", Constant(100000), z)
	inj.AddTenant("batch", Constant(20000), z)
	inj.Start(0, horizon)
	k.Run()

	if inj.windows != 20 || handled < 7000 || uint64(handled) != inj.TotalGenerated() {
		t.Fatalf("%d windows, %d generated, %d handled: want 20 windows of about 420 requests, all handled",
			inj.windows, inj.TotalGenerated(), handled)
	}
	if n := k.EventsProcessed(); n != 20 {
		t.Errorf("the kernel ran %d events for 20 windows, want 20", n)
	}
	if st := k.QueueStats(); st.LaneAppends != 0 {
		t.Errorf("%d arrivals took a lane, want none", st.LaneAppends)
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
