package sharded

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Vector is a sharded, growable sequence. Elements live in memory
// proclets partitioned by contiguous index ranges; an index proclet
// records the partitioning (clients cache it). Appends go to the last
// shard; a shard that outgrows the size cap splits at its midpoint.
type Vector[T any] struct {
	table

	// prefName caches the prefetch-process name ("<name>.prefetch") so
	// the iterator hot path does not format it per fetch.
	prefName string

	// Spills and Faults count tiering activity (see tiering.go).
	Spills int64
	Faults int64
}

// NewVector creates a sharded vector with one initial shard placed by
// the scheduler.
func NewVector[T any](sys *core.System, name string, opts Options) (*Vector[T], error) {
	opts = opts.withDefaults()
	v := &Vector[T]{}
	// Element i is object i+1, and the table's end is the element count,
	// which PushBack advances.
	if err := v.init(sys, name, opts, 1, 0, v.splitShard); err != nil {
		return nil, err
	}
	return v, nil
}

// Len returns the element count.
func (v *Vector[T]) Len() uint64 { return v.end }

// Get fetches element i from wherever its shard lives.
func (v *Vector[T]) Get(p *sim.Proc, from cluster.MachineID, i uint64) (T, error) {
	var zero T
	if i >= v.end {
		return zero, fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, v.end)
	}
	for retry := 0; retry < 4; retry++ {
		v.gate.wait(p, i)
		if err := v.ensureResident(p, i); err != nil {
			return zero, err
		}
		s := v.shardIdx(i)
		v.touch(s)
		sh := v.shards[s]
		v.ops.enter(sh.mp.ID())
		val, err := sh.mp.Get(p, from, i+1)
		v.ops.exit(sh.mp.ID())
		if errors.Is(err, core.ErrNoObject) {
			continue // raced a split; re-route
		}
		if err != nil {
			return zero, err
		}
		return val.(T), nil
	}
	return zero, fmt.Errorf("sharded: element %d unroutable after retries", i)
}

// PushBack appends an element, splitting or spilling to a new shard as
// needed. It synchronously frees memory (by evacuating other proclets)
// when the owning machine is full and the cluster has room elsewhere.
func (v *Vector[T]) PushBack(p *sim.Proc, from cluster.MachineID, val T, bytes int64) error {
	if v.closed {
		return ErrClosed
	}
	i := v.end
	v.gate.wait(p, i)
	last := len(v.shards) - 1
	v.touch(last)
	sh := v.shards[last]
	v.ops.enter(sh.mp.ID())
	err := sh.mp.Put(p, from, i+1, val, bytes)
	if errors.Is(err, cluster.ErrNoMemory) {
		// Ask the scheduler to relieve the machine, then retry once.
		if v.sys.Sched.FreeUpMemory(p, sh.mp.Location(), bytes*4) {
			err = sh.mp.Put(p, from, i+1, val, bytes)
		}
	}
	v.ops.exit(sh.mp.ID())
	if errors.Is(err, cluster.ErrNoMemory) && v.opts.Spill != nil {
		// Memory tiering: push the coldest shard down to the storage
		// tier and retry (the dataset exceeds cluster RAM).
		v.adaptMu.Lock(p)
		if _, perr := v.placeWithEviction(p, last, bytes*4); perr == nil {
			v.adaptMu.Unlock()
			v.ops.enter(sh.mp.ID())
			err = sh.mp.Put(p, from, i+1, val, bytes)
			v.ops.exit(sh.mp.ID())
		} else {
			v.adaptMu.Unlock()
		}
	}
	if errors.Is(err, cluster.ErrNoMemory) {
		// The shard's machine is stuck; start a fresh shard elsewhere.
		nsh, nerr := v.newShard()
		if nerr != nil {
			return fmt.Errorf("sharded: push spill failed: %w (after %w)", nerr, err)
		}
		v.shards = append(v.shards, shard{lo: i, mp: nsh})
		v.publishIndex(p)
		v.ops.enter(nsh.ID())
		err = nsh.Put(p, from, i+1, val, bytes)
		v.ops.exit(nsh.ID())
		if err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	v.end = i + 1
	// Keep the tail shard within the migration budget.
	if sh.mp.HeapBytes() > v.opts.MaxShardBytes {
		v.adaptMu.Lock(p)
		v.splitShard(p, v.shardIdx(i))
		v.adaptMu.Unlock()
	}
	return nil
}

// splitShard splits shard s at its midpoint. Caller holds adaptMu.
// Spilled shards are not split (they have no resident proclet).
func (v *Vector[T]) splitShard(p *sim.Proc, s int) bool {
	if v.shards[s].spilled {
		return false
	}
	src := v.shards[s].mp
	dst, err := v.newShard()
	if err != nil {
		return false // no capacity anywhere; leave the shard oversized
	}
	// Gate the shard's whole range. For the last shard the range is
	// open-ended: appends reserve indices beyond the current length,
	// so the gate must cover them too.
	lo := v.shards[s].lo
	gateHi := ^uint64(0)
	if s+1 < len(v.shards) {
		gateHi = v.shards[s+1].lo
	}
	v.gate.open(lo, gateHi)
	defer v.gate.close()
	// Wait out operations that were already in flight against the
	// source shard when the gate closed, then take stable bounds.
	v.ops.drain(p, src.ID())
	hi := v.hiOf(s)
	if hi-lo < 2 {
		dst.Destroy()
		return false
	}
	mid := lo + (hi-lo)/2
	home := src.Location()
	ids, vals, sizes, err := src.Scan(p, home, mid+1, hi+1)
	if err == nil {
		err = dst.PutBatch(p, home, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes})
	}
	if err != nil {
		dst.Destroy()
		return false
	}
	// Publish the new routing before deleting from the source so
	// readers always find their element on one side or the other.
	v.shards = append(v.shards, shard{})
	copy(v.shards[s+2:], v.shards[s+1:])
	v.shards[s+1] = shard{lo: mid, mp: dst}
	v.publishIndex(p)
	if err := src.DelRange(p, home, mid+1, hi+1); err != nil {
		return false
	}
	v.Splits++
	v.sys.Trace.Emitf(v.sys.K.Now(), obs.KindSplit, v.name,
		int(src.Location()), int(dst.Location()), "shard %d at %d, %d shards", s, mid, len(v.shards))
	return true
}
