package load

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Request is one generated arrival: its virtual-time instant and a
// scrambled key drawn from its tenant's Zipfian popularity
// distribution. Requests are passed by value — nothing on the delivery
// path allocates.
type Request struct {
	At  sim.Time
	Key uint64
	seq uint64 // orders it among At's events: it has arrived once the kernel has Reached (At, seq)
}

// Injector generates a multi-tenant open-loop request stream on ONE
// kernel shard. It is the batched shard-local injection plane: a
// partitioned simulation creates one Injector per sim.ParKernel shard,
// each owning the arrival generators for that shard's machines, so
// generation parallelizes with the kernel and never crosses shards.
//
// Per batch window [W, W+window) the injector — running as an ordinary
// shard event at W — draws every tenant's arrival instants by thinning,
// samples a Zipfian key per arrival, and gives each request the sequence
// number (sim.Kernel.ReserveSeq) an event at its instant would have had.
// It then hands the whole window to the handler at once, in (At, seq)
// order. An arrival costs no kernel event: a consumer tells the requests
// that have arrived by sim.Kernel.Reached, as Queue does, and sees each
// one exactly when an event at its key would have delivered it. The
// pending slice is reused across windows, so generation is
// allocation-free at steady state: cost is O(requests), never O(clients).
type Injector struct {
	k       *sim.Kernel
	window  sim.Time
	horizon sim.Time
	handler func(Request)

	streams []stream
	pending []Request

	batch func(uint64) // bound once: generates the next window

	generated []uint64 // per-tenant request counts
	windows   uint64
}

// stream is one tenant's generator state on this shard: its (shard-
// scaled) rate curve, an independent deterministic RNG stream, and the
// shared immutable key sampler. next and end bound its window's requests
// in pending, in time order, while they are handed over.
type stream struct {
	arr       *Arrivals
	zipf      *Zipf
	rng       *rand.Rand
	next, end int
}

// NewInjector creates an injector on shard kernel k drawing arrivals in
// batches of the given window — use the ParKernel lookahead so one
// batch event runs per synchronization window. Handler is invoked once
// per request, in shard context, at the start of the window the request
// arrives in.
func NewInjector(k *sim.Kernel, window time.Duration, handler func(Request)) *Injector {
	if window <= 0 {
		panic("load: non-positive injector window")
	}
	if handler == nil {
		panic("load: nil injector handler")
	}
	inj := &Injector{k: k, window: sim.Time(window), handler: handler}
	inj.batch = func(uint64) { inj.runBatch() }
	return inj
}

// AddTenant registers a tenant with the given shard-local rate curve
// (already divided by the shard count) and key sampler. The tenant's
// RNG stream is derived from the shard kernel's RNG at registration
// time, so registration order — which callers keep fixed across shards
// and worker counts — fully determines the stream. name labels the
// call and is not kept.
func (inj *Injector) AddTenant(name string, curve Curve, zipf *Zipf) {
	rng := rand.New(rand.NewSource(inj.k.Rand().Int63()))
	inj.streams = append(inj.streams, stream{
		arr:  NewArrivals(curve, rng),
		zipf: zipf,
		rng:  rng,
	})
	inj.generated = append(inj.generated, 0)
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
// order), numbering each as the next event, schedules the next window,
// and hands the requests over. Every arrival lands strictly before the
// next batch event (Draw returns [from, to)).
func (inj *Injector) runBatch() {
	k := inj.k
	t0 := k.Now()
	t1 := min(t0+inj.window, inj.horizon)
	inj.windows++
	inj.pending = inj.pending[:0]
	for si := range inj.streams {
		s := &inj.streams[si]
		s.next = len(inj.pending)
		for _, at := range s.arr.Draw(t0, t1) {
			inj.pending = append(inj.pending, Request{
				At:  at,
				Key: ScrambleKey(s.zipf.Sample(s.rng)),
				seq: k.ReserveSeq(),
			})
		}
		s.end = len(inj.pending)
		inj.generated[si] += uint64(s.end - s.next)
	}
	if t1 < inj.horizon {
		k.ScheduleTagged(t1, inj.batch, 0)
	}
	// Merge the tenants' runs into (At, seq) order: each run is in time
	// order, and at a tie the earlier tenant holds the smaller numbers.
	for {
		var best *stream
		for si := range inj.streams {
			s := &inj.streams[si]
			if s.next < s.end && (best == nil || inj.pending[s.next].At < inj.pending[best.next].At) {
				best = s
			}
		}
		if best == nil {
			return
		}
		inj.handler(inj.pending[best.next])
		best.next++
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
