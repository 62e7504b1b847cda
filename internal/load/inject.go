package load

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Request is one generated arrival: its virtual-time instant, the
// tenant that issued it, and a scrambled key drawn from the tenant's
// Zipfian popularity distribution. Requests are passed by value —
// nothing on the delivery path allocates.
type Request struct {
	At     sim.Time
	Tenant int
	Key    uint64
}

// Injector generates a multi-tenant open-loop request stream on ONE
// kernel shard. It is the batched shard-local injection plane: a
// partitioned simulation creates one Injector per sim.ParKernel shard,
// each owning the arrival generators for that shard's machines, so
// generation parallelizes with the kernel and never crosses shards.
//
// Per batch window [W, W+window) the injector — running as an ordinary
// shard event at W — draws every tenant's arrival instants by thinning,
// samples a Zipfian key per arrival, and schedules each request on its
// tenant's sim.Lane — arrivals are drawn in time order, so the kernel's
// heap orders one entry per tenant, not one per request — with a func
// bound once. The pending slice is reused across windows, so the whole
// generate→schedule→deliver path is allocation-free at steady state:
// cost is O(requests), never O(clients).
//
// Arrivals in a window all land strictly before the next batch event
// (Draw returns [from, to)), so indices into pending are stable for
// exactly the window that scheduled them.
type Injector struct {
	k       *sim.Kernel
	window  sim.Time
	horizon sim.Time
	handler func(Request)

	streams []stream
	pending []Request

	fire  func(uint64) // bound once: delivers pending[tag]
	batch func(uint64) // bound once: generates the next window

	generated []uint64 // per-tenant request counts
	delivered uint64
	windows   uint64
}

// stream is one tenant's generator state on this shard: its (shard-
// scaled) rate curve, an independent deterministic RNG stream, and the
// shared immutable key sampler.
type stream struct {
	arr  *Arrivals
	zipf *Zipf
	rng  *rand.Rand
	lane sim.Lane // the stream's arrivals, appended in time order
}

// NewInjector creates an injector on shard kernel k drawing arrivals in
// batches of the given window — use the ParKernel lookahead so one
// batch event runs per synchronization window. Handler is invoked once
// per request at its arrival instant, in shard context.
func NewInjector(k *sim.Kernel, window time.Duration, handler func(Request)) *Injector {
	if window <= 0 {
		panic("load: non-positive injector window")
	}
	if handler == nil {
		panic("load: nil injector handler")
	}
	inj := &Injector{k: k, window: sim.Time(window), handler: handler}
	inj.fire = func(tag uint64) {
		inj.delivered++
		inj.handler(inj.pending[tag])
	}
	inj.batch = func(uint64) { inj.runBatch() }
	return inj
}

// AddTenant registers a tenant with the given shard-local rate curve
// (already divided by the shard count) and key sampler. The tenant's
// RNG stream is derived from the shard kernel's RNG at registration
// time, so registration order — which callers keep fixed across shards
// and worker counts — fully determines the stream. Returns the tenant
// index used in Request.Tenant; name labels the call and is not kept.
func (inj *Injector) AddTenant(name string, curve Curve, zipf *Zipf) int {
	rng := rand.New(rand.NewSource(inj.k.Rand().Int63()))
	inj.streams = append(inj.streams, stream{
		arr:  NewArrivals(curve, rng),
		zipf: zipf,
		rng:  rng,
		lane: inj.k.NewLane(),
	})
	inj.generated = append(inj.generated, 0)
	return len(inj.streams) - 1
}

// Start schedules generation over [from, horizon). Must be called
// before the kernel runs past from.
func (inj *Injector) Start(from, horizon sim.Time) {
	if len(inj.streams) == 0 {
		panic("load: injector has no tenants")
	}
	inj.horizon = horizon
	if from >= horizon {
		return
	}
	inj.k.ScheduleTagged(from, inj.batch, 0)
}

// runBatch draws one window of arrivals for every tenant (fixed tenant
// order) and schedules each on its tenant's lane.
func (inj *Injector) runBatch() {
	t0 := inj.k.Now()
	t1 := t0 + inj.window
	if t1 > inj.horizon {
		t1 = inj.horizon
	}
	inj.windows++
	inj.pending = inj.pending[:0]
	for si := range inj.streams {
		s := &inj.streams[si]
		before := len(inj.pending)
		for _, at := range s.arr.Draw(t0, t1) {
			inj.pending = append(inj.pending, Request{
				At:     at,
				Tenant: si,
				Key:    ScrambleKey(s.zipf.Sample(s.rng)),
			})
		}
		inj.generated[si] += uint64(len(inj.pending) - before)
	}
	// Schedule only after the slice is fully built: appends above may
	// reallocate, but indices are stable from here to the next batch.
	for i := range inj.pending {
		r := &inj.pending[i]
		inj.streams[r.Tenant].lane.ScheduleTagged(r.At, inj.fire, uint64(i))
	}
	if t1 < inj.horizon {
		inj.k.ScheduleTagged(t1, inj.batch, 0)
	}
}

// TotalGenerated returns the number of requests generated across all
// tenants.
func (inj *Injector) TotalGenerated() uint64 {
	var n uint64
	for _, g := range inj.generated {
		n += g
	}
	return n
}
