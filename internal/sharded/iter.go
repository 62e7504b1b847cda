package sharded

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// VecIter iterates a sharded vector with asynchronous batch prefetch:
// while the consumer processes the current batch, the next batch is
// already crossing the network. This is the mechanism behind the
// paper's "preprocessing images from remote memory proclets is as fast
// as preprocessing local images" (§4).
//
// A batchSize of 0 disables prefetching and fetches one element per
// Next call — the ablation baseline.
//
// Iteration is exactly-once even when shards split or merge mid-scan:
// a batch is only installed when it is aligned with the consumer's
// position and completely covers its planned extent; otherwise the
// fetch is retried through the freshly updated routing.
type VecIter[T any] struct {
	v         *Vector[T]
	pos       uint64 // next element to hand to the consumer
	end       uint64 // exclusive bound (ranged iteration)
	ranged    bool   // when false, end tracks the live vector length
	batchSize int

	buf      []core.Value
	bufPos   int
	inflight *sim.Future[*vecBatch]
	nextFrom uint64 // first element of the batch to prefetch next

	// Fetches counts batch RPCs issued; Refetches counts batches
	// discarded because a split or merge raced the scan.
	Fetches   int64
	Refetches int64
}

type vecBatch struct {
	start uint64
	end   uint64 // planned exclusive extent at fetch time
	vals  []core.Value
	err   error
}

// Iter creates an iterator over the whole vector. Elements appended
// after iteration passes them are not revisited; appends beyond the
// current position are observed.
func (v *Vector[T]) Iter(batchSize int) *VecIter[T] {
	return &VecIter[T]{v: v, batchSize: batchSize}
}

// IterRange creates an iterator over elements [lo, hi) — the unit of
// work the distributed thread pool hands to each chunk task.
func (v *Vector[T]) IterRange(lo, hi uint64, batchSize int) *VecIter[T] {
	return &VecIter[T]{v: v, pos: lo, nextFrom: lo, end: hi, ranged: true, batchSize: batchSize}
}

// limit returns the iterator's current exclusive bound.
func (it *VecIter[T]) limit() uint64 {
	if it.ranged {
		if it.end > it.v.length {
			return it.v.length
		}
		return it.end
	}
	return it.v.length
}

// Remaining returns how many elements are left.
func (it *VecIter[T]) Remaining() uint64 {
	if lim := it.limit(); it.pos < lim {
		return lim - it.pos
	}
	return 0
}

// issuePrefetch starts an asynchronous batch fetch, if one is not
// already in flight and elements remain. The shard is re-resolved
// inside the fetch process (after any in-progress restructure ends),
// so the scan targets current routing.
func (it *VecIter[T]) issuePrefetch(from cluster.MachineID) {
	if it.inflight != nil || it.nextFrom >= it.limit() {
		return
	}
	start := it.nextFrom
	planned := start + uint64(it.batchSize)
	if lim := it.limit(); planned > lim {
		planned = lim
	}
	fut := sim.NewFuture[*vecBatch]()
	it.inflight = fut
	it.nextFrom = planned // provisional; corrected when the batch lands
	it.Fetches++
	if it.v.prefName == "" {
		it.v.prefName = it.v.name + ".prefetch"
	}
	it.v.sys.K.Spawn(it.v.prefName, func(p *sim.Proc) {
		it.v.gate.wait(p, start)
		s := it.v.shardIdx(start)
		end := planned
		if hi := it.v.hiOf(s); end > hi {
			end = hi
		}
		if end <= start {
			fut.Set(&vecBatch{start: start, end: start}, nil)
			return
		}
		if it.v.shards[s].spilled {
			// The shard spilled to the storage tier under us; report a
			// routing miss so the consumer faults it back in.
			fut.Set(&vecBatch{start: start, end: start, err: errSpilledBatch}, nil)
			return
		}
		it.v.touch(s)
		mp := it.v.shards[s].mp
		it.v.ops.enter(mp.ID())
		_, vals, _, err := mp.Scan(p, from, start+1, end+1)
		it.v.ops.exit(mp.ID())
		fut.Set(&vecBatch{start: start, end: end, vals: vals, err: err}, nil)
	})
}

// Next returns the next element. ok is false at the end of the
// iteration range. p is the consuming process; from is the machine it
// currently runs on (data is fetched to that machine).
func (it *VecIter[T]) Next(p *sim.Proc, from cluster.MachineID) (T, bool, error) {
	var zero T
	if it.batchSize <= 0 {
		// Synchronous per-element path (prefetch disabled).
		if it.pos >= it.limit() {
			return zero, false, nil
		}
		val, err := it.v.Get(p, from, it.pos)
		if err != nil {
			return zero, false, err
		}
		it.pos++
		return val, true, nil
	}
	const maxRefetches = 16
	for attempt := 0; attempt <= maxRefetches; attempt++ {
		if it.bufPos < len(it.buf) {
			val := it.buf[it.bufPos]
			it.bufPos++
			it.pos++
			// Keep the pipeline primed.
			it.issuePrefetch(from)
			return val.Any().(T), true, nil
		}
		if it.pos >= it.limit() {
			return zero, false, nil
		}
		if it.inflight == nil {
			// Fault the shard in from the storage tier if necessary
			// before planning a batch against it.
			if err := it.v.ensureResident(p, it.pos); err != nil {
				return zero, false, err
			}
			it.nextFrom = it.pos
			it.issuePrefetch(from)
		}
		b, _ := it.inflight.Get(p)
		it.inflight = nil
		if b.err != nil && !isRoutingErr(b.err) {
			return zero, false, b.err
		}
		complete := b.err == nil && b.start == it.pos && b.end > b.start &&
			uint64(len(b.vals)) == b.end-b.start
		if !complete {
			// A split/merge raced the scan, or the consumer moved.
			// Discard and refetch through the updated routing; never
			// skip positions.
			it.Refetches++
			it.nextFrom = it.pos
			it.buf, it.bufPos = nil, 0
			continue
		}
		it.buf, it.bufPos = b.vals, 0
		it.nextFrom = b.end
		// Immediately overlap the next batch with consumption.
		it.issuePrefetch(from)
	}
	return zero, false, fmt.Errorf("sharded: element %d unfetchable after %d refetches (in %s)",
		it.pos, maxRefetches, it.v.name)
}

// errSpilledBatch marks a batch fetch that raced a shard spill.
var errSpilledBatch = errors.New("sharded: shard spilled during fetch")

// isRoutingErr reports whether an error means "the data moved" (a
// restructure, migration, or spill raced the scan) rather than a hard
// failure.
func isRoutingErr(err error) bool {
	return errors.Is(err, core.ErrNoObject) ||
		errors.Is(err, proclet.ErrNotFound) ||
		errors.Is(err, proclet.ErrMoved) ||
		errors.Is(err, proclet.ErrDead) ||
		errors.Is(err, errSpilledBatch)
}
