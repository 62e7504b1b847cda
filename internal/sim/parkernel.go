// Partitioned conservative-parallel kernel.
//
// A ParKernel shards a simulation across S independent Kernel instances
// (logical shards) and executes them with up to P host worker
// goroutines. Synchronization follows the classic conservative
// time-stepped ("bounded lag" / YAWNS-style) protocol: all shards
// advance together through a lookahead window [W, W+L) whose width L is
// the minimum cross-shard propagation latency, so no event a shard
// executes inside a window can be invalidated by a message from another
// shard — any such message, sent at time t >= W, arrives no earlier
// than t+L >= W+L, which is the next window. Cross-shard messages are
// exchanged through per-(src,dst) single-writer mailboxes that are
// drained at the window barrier in a fixed (dst, src, FIFO) order.
//
// Determinism is structural, not incidental:
//
//   - Each shard is a full Kernel: its own event heap, same-instant
//     FIFO, RNG, worker pool, and (time, seq) order. Shards share no
//     mutable state, so a shard's execution depends only on its seed
//     and the sequence of mailbox messages it receives.
//   - Window boundaries are computed single-threaded from the global
//     minimum next-event time, and mailboxes are merged single-threaded
//     in a fixed order. Neither depends on the worker count.
//   - P (workers) therefore only chooses how many shards execute
//     concurrently within a window; it can never reorder anything.
//     Same seed => byte-identical per-shard event counts, traces and
//     metrics at every P.
//
// A ParKernel with one shard degenerates to exactly today's sequential
// kernel: Run/RunUntil delegate straight to the underlying Kernel with
// zero windows, zero barriers and zero extra events.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// crossMsg is one cross-shard event: run fn in the destination shard at
// absolute virtual time at.
type crossMsg struct {
	at Time
	fn func()
}

// shardTask is one window's worth of work for one shard.
type shardTask struct {
	k     *Kernel
	until Time
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
	workers   int

	// mail[src][dst] buffers cross-shard messages sent during a window.
	// Each slot has exactly one writer (the worker executing shard src)
	// and is drained single-threaded at the barrier, so it needs no
	// locking; the window-barrier WaitGroup provides the happens-before
	// edges in both directions.
	mail [][][]crossMsg

	// crossSent counts mailbox messages. Shard workers append
	// concurrently from different shards, hence the atomic.
	crossSent atomic.Uint64
	windows   uint64

	// active is a per-window scratch list of shards with runnable work.
	active []*Kernel

	pool     []chan shardTask // one task channel per started worker
	poolWG   sync.WaitGroup   // open shard tasks in the current window
	poolSize int
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
		active:    make([]*Kernel, 0, shards),
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

// SetWorkers bounds how many shards execute concurrently (P). Values
// above the shard count are clamped; values below one mean one. The
// setting affects wall-clock only — simulation results are identical at
// every worker count. Must not be called while Run/RunUntil is active.
func (pk *ParKernel) SetWorkers(p int) {
	if p < 1 {
		p = 1
	}
	if p > len(pk.shards) {
		p = len(pk.shards)
	}
	if p != pk.poolSize {
		pk.stopPool()
	}
	pk.workers = p
}

// Workers returns the configured worker bound.
func (pk *ParKernel) Workers() int { return pk.workers }

// Windows reports how many lookahead windows have been executed.
func (pk *ParKernel) Windows() uint64 { return pk.windows }

// CrossMessages reports how many cross-shard mailbox messages have been
// sent.
func (pk *ParKernel) CrossMessages() uint64 { return pk.crossSent.Load() }

// EventsProcessed sums executed events across shards in shard order.
func (pk *ParKernel) EventsProcessed() uint64 {
	var n uint64
	for _, sh := range pk.shards {
		n += sh.EventsProcessed()
	}
	return n
}

// Live sums unfinished processes across shards.
func (pk *ParKernel) Live() int {
	n := 0
	for _, sh := range pk.shards {
		n += sh.Live()
	}
	return n
}

// Blocked sums parked processes across shards.
func (pk *ParKernel) Blocked() int {
	n := 0
	for _, sh := range pk.shards {
		n += sh.Blocked()
	}
	return n
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
	if min := pk.shards[src].now + pk.lookahead; at < min {
		panic(fmt.Sprintf(
			"sim: cross-shard send %d->%d at %v violates lookahead (now %v + %v): "+
				"cross-shard interactions must model at least the minimum propagation latency",
			src, dst, at, pk.shards[src].now, pk.lookahead))
	}
	pk.mail[src][dst] = append(pk.mail[src][dst], crossMsg{at: at, fn: fn})
	pk.crossSent.Add(1)
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
// event queues. Runs single-threaded at the window barrier; the merge
// order (dst ascending, then src ascending, then FIFO within a
// mailbox) is fixed, so the (time, seq) stamps each destination kernel
// assigns — and therefore the drain order of same-instant cross-shard
// events — are identical on every run and at every worker count.
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

// startPool launches the worker goroutines. Each worker owns a
// dedicated task channel; runWindow deals shards round-robin so the
// assignment of shards to workers is fixed (it only matters for wall
// clock, never for results).
func (pk *ParKernel) startPool() {
	pk.pool = make([]chan shardTask, pk.workers)
	for w := range pk.pool {
		ch := make(chan shardTask, len(pk.shards))
		pk.pool[w] = ch
		go func() {
			for task := range ch {
				task.k.RunUntil(task.until)
				pk.poolWG.Done()
			}
		}()
	}
	pk.poolSize = pk.workers
}

// stopPool retires the worker goroutines (idempotent).
func (pk *ParKernel) stopPool() {
	for _, ch := range pk.pool {
		close(ch)
	}
	pk.pool = nil
	pk.poolSize = 0
}

// runWindow executes every shard with runnable work up to and including
// until. The channel send (barrier entry) and WaitGroup wait (barrier
// exit) establish happens-before edges between the coordinator and each
// worker, so mailbox slices written during the window are safely read
// by deliver afterwards.
func (pk *ParKernel) runWindow(until Time) {
	pk.active = pk.active[:0]
	for _, sh := range pk.shards {
		if at, ok := sh.nextAt(); ok && at <= until {
			pk.active = append(pk.active, sh)
		}
	}
	if pk.workers <= 1 || len(pk.active) <= 1 {
		for _, sh := range pk.active {
			sh.RunUntil(until)
		}
		return
	}
	if pk.pool == nil {
		pk.startPool()
	}
	pk.poolWG.Add(len(pk.active))
	for i, sh := range pk.active {
		pk.pool[i%len(pk.pool)] <- shardTask{k: sh, until: until}
	}
	pk.poolWG.Wait()
}

// RunUntil executes all shards up to and including virtual time t,
// window by window, then advances every shard clock to exactly t (so
// processes spawned afterwards start from a common instant). Events
// scheduled after t remain queued.
func (pk *ParKernel) RunUntil(t Time) Time {
	if len(pk.shards) == 1 {
		return pk.shards[0].RunUntil(t)
	}
	for {
		w, ok := pk.minNext()
		if !ok || w > t {
			break
		}
		end := w + pk.lookahead - 1
		if end > t {
			end = t
		}
		pk.runWindow(end)
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
	if len(pk.shards) == 1 {
		return pk.shards[0].Run()
	}
	for {
		w, ok := pk.minNext()
		if !ok {
			break
		}
		pk.runWindow(w + pk.lookahead - 1)
		pk.windows++
		pk.deliver()
	}
	var max Time
	for _, sh := range pk.shards {
		if sh.now > max {
			max = sh.now
		}
	}
	return max
}

// Close retires the host worker pool and closes every shard kernel
// (see Kernel.Close: pooled workers retire, still-parked processes are
// unwound, pending events are dropped). Call when done with the
// ParKernel; code that builds many would otherwise accumulate a fleet's
// worth of parked goroutines, and the shard state they pin, per run.
func (pk *ParKernel) Close() {
	pk.stopPool()
	for _, sh := range pk.shards {
		sh.Close()
	}
}
