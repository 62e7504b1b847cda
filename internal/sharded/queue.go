package sharded

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Queue is a sharded FIFO queue connecting pipeline stages (§4): items
// buffer in a chain of segment memory proclets, so bursts of producer
// output absorb into memory that can split across machines and migrate
// under pressure. Producers append to the tail segment; when it
// outgrows the size cap the queue seals it and opens a fresh segment
// (the queue's split function). Fully-consumed segments retire (the
// merge/cleanup path).
type Queue[T any] struct {
	sys  *core.System
	name string
	opts Options

	segs    []*qseg
	headSeq uint64 // next sequence number to pop
	tailSeq uint64 // next sequence number to push

	notEmpty  sim.Cond // signaled on push
	committed sim.Cond // signaled when an in-flight push lands

	nextSeg int
	closed  bool

	// Seals counts segment roll-overs (queue splits); Retires counts
	// drained segments destroyed.
	Seals   int64
	Retires int64
	// MaxDepth tracks the high-water item count.
	MaxDepth uint64
}

// qseg is one segment: sequence numbers [lo, hi) (hi set when sealed).
type qseg struct {
	mp     *core.MemoryProclet
	lo     uint64
	hi     uint64 // exclusive; 0 while the segment is the open tail
	pushed uint64 // completed puts
	taken  uint64 // completed takes
	sealed bool
}

// NewQueue creates a queue with a single open segment.
func NewQueue[T any](sys *core.System, name string, opts Options) (*Queue[T], error) {
	opts = opts.withDefaults()
	q := &Queue[T]{sys: sys, name: name, opts: opts}
	seg, err := q.newSeg(0)
	if err != nil {
		return nil, err
	}
	q.segs = []*qseg{seg}
	return q, nil
}

func (q *Queue[T]) newSeg(lo uint64) (*qseg, error) {
	q.nextSeg++
	mp, err := q.sys.NewMemoryProclet(fmt.Sprintf("%s.seg-%d", q.name, q.nextSeg), q.opts.MaxShardBytes/2)
	if err != nil {
		return nil, err
	}
	return &qseg{mp: mp, lo: lo}, nil
}

// depth returns the number of items logically in the queue (reserved
// pushes minus reserved pops).
func (q *Queue[T]) depth() uint64 { return q.tailSeq - q.headSeq }

// segFor locates the segment covering sequence number seq.
func (q *Queue[T]) segFor(seq uint64) *qseg {
	for _, s := range q.segs {
		if seq >= s.lo && (!s.sealed || seq < s.hi) {
			return s
		}
	}
	return nil
}

// Push appends an item, blocking the producer for the transfer to the
// tail segment's machine.
func (q *Queue[T]) Push(p *sim.Proc, from cluster.MachineID, val T, bytes int64) error {
	if q.closed {
		return ErrClosed
	}
	seq := q.tailSeq
	q.tailSeq++
	if d := q.depth(); d > q.MaxDepth {
		q.MaxDepth = d
	}
	seg := q.segs[len(q.segs)-1]
	// Seal the tail and open a new segment when it is full — the
	// queue's split path. Sealing happens before the put so seq still
	// belongs to the old segment only if it was reserved before.
	if seg.mp.HeapBytes() > q.opts.MaxShardBytes {
		seg.sealed = true
		seg.hi = seq
		nseg, err := q.newSeg(seq)
		if err != nil {
			// No capacity for a new segment; keep stuffing the tail.
			seg.sealed = false
			seg.hi = 0
		} else {
			q.segs = append(q.segs, nseg)
			seg = nseg
			q.Seals++
			q.sys.Trace.Emitf(q.sys.K.Now(), obs.KindSplit, q.name,
				-1, int(nseg.mp.Location()), "sealed at seq %d, %d segments", seq, len(q.segs))
		}
	}
	q.notEmpty.Signal()
	err := seg.mp.Put(p, from, seq+1, val, bytes)
	if errors.Is(err, cluster.ErrNoMemory) {
		if q.sys.Sched.FreeUpMemory(p, seg.mp.Location(), bytes*4) {
			err = seg.mp.Put(p, from, seq+1, val, bytes)
		}
	}
	if err != nil {
		return err
	}
	seg.pushed++
	q.committed.Broadcast()
	return nil
}

// TryPop removes and returns the oldest item. ok is false when the
// queue is logically empty. If the item's push is still in flight the
// pop waits for it to land (bounded by the producer's transfer).
func (q *Queue[T]) TryPop(p *sim.Proc, from cluster.MachineID) (T, bool, error) {
	var zero T
	if q.closed {
		return zero, false, ErrClosed
	}
	if q.headSeq == q.tailSeq {
		return zero, false, nil
	}
	seq := q.headSeq
	q.headSeq++
	for {
		seg := q.segFor(seq)
		if seg == nil {
			return zero, false, fmt.Errorf("sharded: queue %s lost segment for seq %d", q.name, seq)
		}
		val, err := seg.mp.Take(p, from, seq+1)
		if errors.Is(err, core.ErrNoObject) {
			// Producer reserved this seq but its put is still on the
			// wire; wait for a commit and retry.
			q.committed.Wait(p)
			continue
		}
		if err != nil {
			return zero, false, err
		}
		seg.taken++
		q.retireDrained()
		return val.(T), true, nil
	}
}

// Pop blocks until an item is available.
func (q *Queue[T]) Pop(p *sim.Proc, from cluster.MachineID) (T, error) {
	for {
		val, ok, err := q.TryPop(p, from)
		if err != nil || ok {
			return val, err
		}
		q.notEmpty.Wait(p)
	}
}

// retireDrained destroys fully consumed sealed segments.
func (q *Queue[T]) retireDrained() {
	for len(q.segs) > 1 {
		s := q.segs[0]
		n := s.hi - s.lo
		if !s.sealed || s.pushed < n || s.taken < n {
			return
		}
		s.mp.Destroy()
		q.segs = q.segs[1:]
		q.Retires++
		q.sys.Trace.Emitf(q.sys.K.Now(), obs.KindMerge, q.name, -1, -1,
			"retired segment [%d,%d), %d segments", s.lo, s.hi, len(q.segs))
	}
}

// close destroys all segments. Items still queued are lost.
func (q *Queue[T]) close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, s := range q.segs {
		s.mp.Destroy()
	}
	q.notEmpty.Broadcast()
	q.committed.Broadcast()
}
