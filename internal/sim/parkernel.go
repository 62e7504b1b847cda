// Partitioned conservative kernel.
//
// A ParKernel shards a simulation across S independent Kernel instances
// (logical shards). Synchronization follows the classic conservative
// time-stepped ("bounded lag" / YAWNS-style) protocol: all shards
// advance together through a lookahead window [W, W+L) whose width L is
// the minimum cross-shard propagation latency, so no event a shard
// executes inside a window can be invalidated by a message from another
// shard — any such message, sent at time t >= W, arrives no earlier
// than t+L >= W+L, which is the next window. Cross-shard messages are
// buffered in per-(src,dst) mailboxes that are drained at the window
// barrier in a fixed (dst, src, FIFO) order.
//
// Determinism is structural, not incidental:
//
//   - Each shard is a full Kernel: its own event heap, same-instant
//     FIFO, RNG, worker pool, and (time, seq) order. Shards share no
//     mutable state, so a shard's execution depends only on its seed
//     and the sequence of mailbox messages it receives.
//   - Window boundaries are computed from the global minimum next-event
//     time, the shards due in a window run one after another in shard
//     order, and mailboxes are merged in a fixed order.
//
// Linked shards run on the caller's goroutine: a window holds a few
// dozen events, too few to pay for handing shards to other host
// threads (EXPERIMENTS.md, "P>1").
//
// A ParKernel with one shard degenerates to exactly the sequential
// Kernel: Run/RunUntil delegate straight to the underlying Kernel with
// zero windows, zero barriers and zero extra events.
//
// An isolated ParKernel (Isolate) has no cross-shard channel, so it runs
// each shard straight to the limit in one pass, with no window barrier,
// fanned out over up to SetWorkers host goroutines: the same per-shard
// events in the same order, in less wall clock.
package sim

import (
	"fmt"

	"repro/internal/runpar"
)

// crossMsg is one cross-shard event: run fn in the destination shard at
// absolute virtual time at.
type crossMsg struct {
	at Time
	fn func()
}

// ParKernel coordinates S shard kernels under conservative lookahead
// synchronization. Construct with NewParKernel, populate the shard
// kernels (machines, processes, scheduled events), then drive with
// Run/RunUntil from the host goroutine.
//
// Rules for simulated code running under a ParKernel:
//
//   - Everything reachable from a shard's events must touch only that
//     shard's state. The only sanctioned cross-shard channel is Send.
//   - Send may only target times >= now+Lookahead (enforced; this is
//     the conservative contract that makes windows safe).
//   - Kernel.Stop is not supported on shard kernels under a ParKernel;
//     bound runs with RunUntil instead.
type ParKernel struct {
	shards    []*Kernel
	lookahead Time
	workers   int // host goroutines of the isolated pass

	// mail[src][dst] buffers cross-shard messages sent during a window;
	// deliver drains it at the barrier.
	mail [][][]crossMsg

	crossSent uint64 // mailbox messages sent
	windows   uint64
	isolated  bool // set by Isolate: no Send, no windows
}

// NewParKernel creates a partitioned kernel with the given number of
// logical shards and a lookahead window of the given width (the minimum
// cross-shard propagation latency). Shard i's kernel is seeded with
// seed+i*1_000_003, so shard 0 of a single-shard ParKernel is exactly
// NewKernel(seed).
func NewParKernel(seed int64, shards int, lookahead Time) *ParKernel {
	if shards <= 0 {
		panic("sim: ParKernel needs at least one shard")
	}
	if lookahead <= 0 && shards > 1 {
		panic("sim: ParKernel needs a positive lookahead window")
	}
	pk := &ParKernel{
		shards:    make([]*Kernel, shards),
		lookahead: lookahead,
		workers:   1,
	}
	for i := range pk.shards {
		pk.shards[i] = NewKernel(seed + int64(i)*1_000_003)
	}
	pk.mail = make([][][]crossMsg, shards)
	for s := range pk.mail {
		pk.mail[s] = make([][]crossMsg, shards)
	}
	return pk
}

// NumShards returns the number of logical shards.
func (pk *ParKernel) NumShards() int { return len(pk.shards) }

// Shard returns shard i's kernel.
func (pk *ParKernel) Shard(i int) *Kernel { return pk.shards[i] }

// Lookahead returns the window width.
func (pk *ParKernel) Lookahead() Time { return pk.lookahead }

// SetWorkers bounds how many shards an isolated kernel's pass runs at
// once (P); linked shards always run one at a time, in shard order.
// Values below one mean one. The setting affects wall-clock only —
// simulation results are identical at every worker count. Must not be
// called while Run/RunUntil is active.
func (pk *ParKernel) SetWorkers(p int) { pk.workers = max(p, 1) }

// Windows reports how many lookahead windows have been executed.
func (pk *ParKernel) Windows() uint64 { return pk.windows }

// CrossMessages reports how many cross-shard mailbox messages have been
// sent.
func (pk *ParKernel) CrossMessages() uint64 { return pk.crossSent }

// Isolate declares that no shard will Send to another (a cross-shard
// Send then panics), so Run and RunUntil run with no windows. It must
// come before the first window.
func (pk *ParKernel) Isolate() {
	if pk.windows > 0 {
		panic(fmt.Sprintf("sim: Isolate after %d windows ran: isolate a ParKernel before it first runs", pk.windows))
	}
	pk.isolated = true
}

// Send schedules fn to run in shard dst at absolute virtual time at. It
// must be called from code executing in shard src (an event, a fast
// handler, or a simulated process of that shard). Same-shard sends are
// ordinary Schedule calls; cross-shard sends must respect the lookahead
// contract at >= src.Now()+Lookahead and are delivered at the next
// window barrier.
func (pk *ParKernel) Send(src, dst int, at Time, fn func()) {
	if src == dst {
		pk.shards[src].Schedule(at, fn)
		return
	}
	if pk.isolated {
		panic(fmt.Sprintf("sim: cross-shard send %d->%d at %v (now %v) on an isolated ParKernel", src, dst, at, pk.shards[src].now))
	}
	if min := pk.shards[src].now + pk.lookahead; at < min {
		panic(fmt.Sprintf(
			"sim: cross-shard send %d->%d at %v violates lookahead (now %v + %v): "+
				"cross-shard interactions must model at least the minimum propagation latency",
			src, dst, at, pk.shards[src].now, pk.lookahead))
	}
	pk.mail[src][dst] = append(pk.mail[src][dst], crossMsg{at: at, fn: fn})
	pk.crossSent++
}

// minNext returns the earliest next-event time across all shards.
// Mailboxes are always drained before minNext runs, so pending events
// live entirely in the shard queues.
func (pk *ParKernel) minNext() (Time, bool) {
	var best Time
	found := false
	for _, sh := range pk.shards {
		if at, ok := sh.nextAt(); ok && (!found || at < best) {
			best, found = at, true
		}
	}
	return best, found
}

// deliver drains every mailbox into the destination shards'
// event queues at the window barrier. The merge order (dst ascending,
// then src ascending, then FIFO within a mailbox) is fixed, so the
// (time, seq) stamps each destination kernel assigns — and therefore
// the drain order of same-instant cross-shard events — are identical on
// every run.
func (pk *ParKernel) deliver() {
	for dst := range pk.shards {
		k := pk.shards[dst]
		for src := range pk.shards {
			q := pk.mail[src][dst]
			if len(q) == 0 {
				continue
			}
			for i := range q {
				k.inject(q[i].at, q[i].fn)
				q[i] = crossMsg{} // release the closure to the GC
			}
			pk.mail[src][dst] = q[:0]
		}
	}
}

// runDue runs every shard with an event due by until up to and
// including until, in shard order; a shard with nothing due keeps its
// clock.
func (pk *ParKernel) runDue(until Time) {
	for _, sh := range pk.shards {
		runShard(sh, until)
	}
}

// runShard is runDue for one shard.
func runShard(sh *Kernel, until Time) {
	if at, ok := sh.nextAt(); ok && at <= until {
		sh.RunUntil(until)
	}
}

// RunUntil executes all shards up to and including virtual time t,
// window by window, then advances every shard clock to exactly t (so
// processes spawned afterwards start from a common instant). Events
// scheduled after t remain queued.
func (pk *ParKernel) RunUntil(t Time) Time {
	if len(pk.shards) == 1 {
		return pk.shards[0].RunUntil(t)
	}
	switch {
	case pk.isolated && pk.workers > 1:
		// Shards share nothing, so which host goroutine runs a shard
		// changes only the wall clock.
		runpar.Map(len(pk.shards), pk.workers, func(i int) struct{} {
			runShard(pk.shards[i], t)
			return struct{}{}
		})
	case pk.isolated:
		pk.runDue(t) // one worker: inline, with no closure to allocate
	}
	for !pk.isolated {
		w, ok := pk.minNext()
		if !ok || w > t {
			break
		}
		end := w + pk.lookahead - 1
		if end > t {
			end = t
		}
		pk.runDue(end)
		pk.windows++
		pk.deliver()
	}
	for _, sh := range pk.shards {
		sh.advanceTo(t)
	}
	return t
}

// Run executes windows until every shard's queue drains and no
// cross-shard message is in flight. It returns the maximum shard time.
func (pk *ParKernel) Run() Time {
	pk.RunUntil(maxTime) // no limit: no window is cut short, no clock advanced
	var max Time
	for _, sh := range pk.shards {
		if sh.now > max {
			max = sh.now
		}
	}
	return max
}

// Close closes every shard kernel (see Kernel.Close: pooled workers
// retire, still-parked processes are unwound, pending events are
// dropped). Call when done with the ParKernel; code that builds many
// would otherwise accumulate a fleet's worth of parked goroutines, and
// the shard state they pin, per run.
func (pk *ParKernel) Close() {
	for _, sh := range pk.shards {
		sh.Close()
	}
}
