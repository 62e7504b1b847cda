// Package load models multi-tenant client populations as aggregate
// arrival processes, so "millions of clients" cost O(request rate)
// instead of O(clients).
//
// Closed-loop drivers (one simulated process per client) cap out at a
// few thousand clients: every client is a goroutine, a stack, and a
// stream of kernel events even while idle. An open-loop population is
// the opposite contract — the offered load is an intensity function
// λ(t) over virtual time, and clients exist only as that intensity.
// Three pieces make this practical inside the deterministic simulator:
//
//   - Curve: piecewise-linear request-rate curves (diurnal sine
//     approximations, flash-crowd spikes, ramps) built per tenant from
//     a client count times a per-client rate profile.
//   - Arrivals: a nonhomogeneous-Poisson sampler that draws the exact
//     arrival instants in a window by thinning against the curve's
//     window maximum, allocation-free after warm-up, from an injected
//     per-shard RNG stream.
//   - Zipf (zipf.go): O(1) skewed key sampling with zero allocations
//     on the sample path.
//   - Injector (inject.go): batched shard-local injection — arrivals
//     for one sim.ParKernel shard are drawn a window at a time in
//     shard context and enqueued through the kernel's pooled event
//     queue, so generation parallelizes with the partitioned kernel
//     and never crosses shards.
package load

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// CurvePoint anchors a piecewise-linear rate curve: the offered rate is
// Rate requests/second at virtual time At, interpolated linearly to the
// next point. Before the first point the rate is the first point's;
// after the last, the last's.
type CurvePoint struct {
	At   sim.Time
	Rate float64
}

// Curve is a piecewise-linear request-rate intensity λ(t) in
// requests/second over virtual time. Curves are immutable once built
// and safe to share read-only across shards.
type Curve struct {
	pts []CurvePoint
}

// Piecewise builds a curve from anchor points, which must be in
// strictly increasing time order with non-negative rates.
func Piecewise(pts ...CurvePoint) Curve {
	if len(pts) == 0 {
		panic("load: curve needs at least one point")
	}
	for i, pt := range pts {
		if pt.Rate < 0 {
			panic("load: negative rate")
		}
		if i > 0 && pt.At <= pts[i-1].At {
			panic("load: curve points must be in strictly increasing time order")
		}
	}
	return Curve{pts: pts}
}

// Constant builds a flat curve at rps requests/second.
func Constant(rps float64) Curve {
	return Piecewise(CurvePoint{At: 0, Rate: rps})
}

// Sampled discretizes an analytic intensity function into a
// piecewise-linear curve with anchor points every step over
// [0, horizon]. This is how compound shapes — a diurnal sine times a
// flash-crowd multiplier — become curves the thinning sampler can
// bound exactly.
func Sampled(horizon sim.Time, step time.Duration, f func(t sim.Time) float64) Curve {
	if step <= 0 {
		panic("load: non-positive sample step")
	}
	var pts []CurvePoint
	for t := sim.Time(0); ; t = t.Add(step) {
		if t > horizon {
			t = horizon
		}
		r := f(t)
		if r < 0 {
			r = 0
		}
		pts = append(pts, CurvePoint{At: t, Rate: r})
		if t >= horizon {
			break
		}
	}
	return Curve{pts: pts}
}

// Diurnal returns the intensity function of a sinusoidal daily cycle
// compressed to the given period: base*(1 + amp*sin(2πt/period)),
// starting at the mean and rising. amp must be in [0, 1] so the rate
// never goes negative.
func Diurnal(base, amp float64, period time.Duration) func(t sim.Time) float64 {
	if amp < 0 || amp > 1 {
		panic("load: diurnal amplitude must be in [0, 1]")
	}
	return func(t sim.Time) float64 {
		return base * (1 + amp*math.Sin(2*math.Pi*float64(t)/float64(period)))
	}
}

// Spike returns a flash-crowd multiplier: 1 outside the event, ramping
// linearly to mult over ramp starting at start, holding for hold, and
// decaying back over decay. Multiply it into a tenant's intensity
// function before Sampled.
func Spike(start sim.Time, ramp, hold, decay time.Duration, mult float64) func(t sim.Time) float64 {
	if mult < 1 {
		panic("load: spike multiplier below 1")
	}
	rampEnd := start.Add(ramp)
	holdEnd := rampEnd.Add(hold)
	decayEnd := holdEnd.Add(decay)
	return func(t sim.Time) float64 {
		switch {
		case t <= start || t >= decayEnd:
			return 1
		case t < rampEnd:
			return 1 + (mult-1)*float64(t-start)/float64(ramp)
		case t < holdEnd:
			return mult
		default:
			return mult - (mult-1)*float64(t-holdEnd)/float64(decay)
		}
	}
}

// Ramp returns an intensity function rising (or falling) linearly from
// `from` to `to` requests/second over [0, over], then holding at `to`.
func Ramp(from, to float64, over time.Duration) func(t sim.Time) float64 {
	return func(t sim.Time) float64 {
		if t >= sim.Time(over) {
			return to
		}
		return from + (to-from)*float64(t)/float64(over)
	}
}

// Rate evaluates the curve at t by linear interpolation, scanning from
// segment hint i (the caller advances the hint monotonically; the
// Arrivals sampler uses this so evaluation during a time-ordered draw
// is O(1) amortized). Returns the rate and the updated hint.
func (c Curve) rateFrom(i int, t sim.Time) (float64, int) {
	pts := c.pts
	for i+1 < len(pts) && pts[i+1].At <= t {
		i++
	}
	if i+1 >= len(pts) || t <= pts[i].At {
		return pts[i].Rate, i
	}
	a, b := pts[i], pts[i+1]
	frac := float64(t-a.At) / float64(b.At-a.At)
	return a.Rate + (b.Rate-a.Rate)*frac, i
}

// Rate evaluates the curve at t.
func (c Curve) Rate(t sim.Time) float64 {
	r, _ := c.rateFrom(0, t)
	return r
}

// MaxRate returns the maximum rate over [from, to]. A piecewise-linear
// curve attains its window maximum at a segment endpoint or a window
// edge, so this is exact — the tight thinning bound for that window.
func (c Curve) MaxRate(from, to sim.Time) float64 {
	max := c.Rate(from)
	if r := c.Rate(to); r > max {
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

// Mean returns the time-weighted mean rate over [from, to) — the
// expected number of arrivals in the window divided by its length.
func (c Curve) Mean(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var area float64
	prevT := from
	prevR := c.Rate(from)
	for _, pt := range c.pts {
		if pt.At <= from {
			continue
		}
		if pt.At >= to {
			break
		}
		r := c.Rate(pt.At)
		area += (prevR + r) / 2 * float64(pt.At-prevT)
		prevT, prevR = pt.At, r
	}
	area += (prevR + c.Rate(to)) / 2 * float64(to-prevT)
	return area / float64(to-from)
}

// Arrivals samples a nonhomogeneous Poisson process whose intensity is
// a Curve, by thinning: candidate arrivals are drawn from a homogeneous
// process at the window's maximum rate and accepted with probability
// λ(t)/λmax. Candidates are generated in time order, so curve
// evaluation amortizes to O(1) per candidate via a segment cursor.
//
// The RNG is injected, never package-global: a partitioned simulation
// gives each shard's generator its own deterministic stream (seeded
// from the shard seed), so arrival sequences are reproducible at any
// worker count. The draw buffer is owned by the Arrivals and reused, so
// steady-state draws allocate nothing.
type Arrivals struct {
	curve  Curve
	rng    *rand.Rand
	cursor int
	buf    []sim.Time
}

// NewArrivals creates a sampler over curve drawing from rng. Draw
// windows must be requested in non-decreasing time order.
func NewArrivals(curve Curve, rng *rand.Rand) *Arrivals {
	if rng == nil {
		panic("load: Arrivals needs an injected *rand.Rand (no package-global randomness)")
	}
	return &Arrivals{curve: curve, rng: rng}
}

// Draw returns the arrival instants in [from, to), sorted ascending.
// The returned slice is the sampler's reusable buffer: valid until the
// next Draw, not to be retained. Zero allocations once the buffer has
// grown to the steady-state batch size.
func (a *Arrivals) Draw(from, to sim.Time) []sim.Time {
	a.buf = a.buf[:0]
	if to <= from {
		return a.buf
	}
	lamMax := a.curve.MaxRate(from, to)
	if lamMax <= 0 {
		return a.buf
	}
	// Exponential gaps at λmax, in nanoseconds of virtual time.
	gapScale := float64(sim.Second) / lamMax
	t := from
	for {
		u := a.rng.Float64()
		t += sim.Time(-math.Log(1-u)*gapScale + 0.5)
		if t >= to {
			break
		}
		var r float64
		r, a.cursor = a.curve.rateFrom(a.cursor, t)
		if a.rng.Float64()*lamMax <= r {
			a.buf = append(a.buf, t)
		}
	}
	return a.buf
}
