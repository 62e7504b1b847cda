package sharded

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// indexObjID is the object holding the routing table inside a
// structure's index proclet.
const indexObjID = 1

// Vector is a sharded, growable sequence. Elements live in memory
// proclets partitioned by contiguous index ranges; an index proclet
// records the partitioning (clients cache it). Appends go to the last
// shard; a shard that outgrows the size cap splits at its midpoint.
type Vector[T any] struct {
	sys  *core.System
	name string
	opts Options

	// prefName caches the prefetch-process name ("<name>.prefetch") so
	// the iterator hot path does not format it per fetch.
	prefName string

	shards []vshard // sorted by lo
	length uint64

	index *core.MemoryProclet // pinned; holds the routing table

	gate      splitGate
	ops       *opTracker
	adaptMu   sim.Mutex
	nextShard int
	closed    bool

	// Splits and Merges count structural adaptations; Spills and
	// Faults count tiering activity (see tiering.go).
	Splits int64
	Merges int64
	Spills int64
	Faults int64
}

// vshard is one index entry: the shard holding elements [lo, next.lo).
// A spilled shard has mp == nil and its contents in the storage tier.
type vshard struct {
	lo uint64
	mp *core.MemoryProclet

	spilled    bool
	spillBytes int64
	lastAccess sim.Time
}

// NewVector creates a sharded vector with one initial shard placed by
// the scheduler.
func NewVector[T any](sys *core.System, name string, opts Options) (*Vector[T], error) {
	opts = opts.withDefaults(sys)
	if opts.Spill != nil && opts.Replicas >= 2 {
		return nil, errors.New("sharded: Replicas and Spill are mutually exclusive")
	}
	v := &Vector[T]{sys: sys, name: name, opts: opts, ops: newOpTracker()}
	idx, err := sys.NewMemoryProclet(name+".index", 4096)
	if err != nil {
		return nil, err
	}
	if idx, err = replicate(sys, idx, opts); err != nil {
		return nil, err
	}
	v.index = idx
	sys.Sched.Pin(idx.ID())
	sh, err := v.newShard()
	if err != nil {
		return nil, err
	}
	v.shards = []vshard{{lo: 0, mp: sh}}
	if opts.AutoAdapt {
		sys.Sched.RegisterAdaptive(v)
	}
	return v, nil
}

func (v *Vector[T]) newShard() (*core.MemoryProclet, error) {
	v.nextShard++
	mp, err := v.sys.NewMemoryProclet(fmt.Sprintf("%s.shard-%d", v.name, v.nextShard), v.opts.MaxShardBytes/2)
	if err != nil {
		return nil, err
	}
	return replicate(v.sys, mp, v.opts)
}

// Name returns the vector's name.
func (v *Vector[T]) Name() string { return v.name }

// Len returns the element count.
func (v *Vector[T]) Len() uint64 { return v.length }

// NumShards returns the current shard count.
func (v *Vector[T]) NumShards() int { return len(v.shards) }

// Shards returns the backing memory proclets in index order; spilled
// shards contribute nil entries.
func (v *Vector[T]) Shards() []*core.MemoryProclet {
	out := make([]*core.MemoryProclet, len(v.shards))
	for i, s := range v.shards {
		out[i] = s.mp
	}
	return out
}

// shardIdx returns the index of the shard covering element i.
func (v *Vector[T]) shardIdx(i uint64) int {
	return sort.Search(len(v.shards), func(s int) bool { return v.shards[s].lo > i }) - 1
}

// hiOf returns the exclusive upper element bound of shard s.
func (v *Vector[T]) hiOf(s int) uint64 {
	if s == len(v.shards)-1 {
		return v.length
	}
	return v.shards[s+1].lo
}

// Get fetches element i from wherever its shard lives.
func (v *Vector[T]) Get(p *sim.Proc, from cluster.MachineID, i uint64) (T, error) {
	var zero T
	if i >= v.length {
		return zero, fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, v.length)
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

// Set overwrites element i.
func (v *Vector[T]) Set(p *sim.Proc, from cluster.MachineID, i uint64, val T, bytes int64) error {
	if i >= v.length {
		return fmt.Errorf("%w: %d >= %d", ErrOutOfRange, i, v.length)
	}
	v.gate.wait(p, i)
	if err := v.ensureResident(p, i); err != nil {
		return err
	}
	s := v.shardIdx(i)
	v.touch(s)
	sh := v.shards[s]
	v.ops.enter(sh.mp.ID())
	defer v.ops.exit(sh.mp.ID())
	return sh.mp.Put(p, from, i+1, val, bytes)
}

// PushBack appends an element, splitting or spilling to a new shard as
// needed. It synchronously frees memory (by evacuating other proclets)
// when the owning machine is full and the cluster has room elsewhere.
func (v *Vector[T]) PushBack(p *sim.Proc, from cluster.MachineID, val T, bytes int64) error {
	if v.closed {
		return ErrClosed
	}
	i := v.length
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
		v.shards = append(v.shards, vshard{lo: i, mp: nsh})
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
	v.length = i + 1
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
	v.shards = append(v.shards, vshard{})
	copy(v.shards[s+2:], v.shards[s+1:])
	v.shards[s+1] = vshard{lo: mid, mp: dst}
	v.publishIndex(p)
	if err := src.DelRange(p, home, mid+1, hi+1); err != nil {
		return false
	}
	v.Splits++
	v.sys.Trace.Emitf(v.sys.K.Now(), obs.KindSplit, v.name,
		int(src.Location()), int(dst.Location()), "shard %d at %d, %d shards", s, mid, len(v.shards))
	return true
}

// mergeShards merges shard s+1 into shard s. Caller holds adaptMu.
func (v *Vector[T]) mergeShards(p *sim.Proc, s int) bool {
	if s+1 >= len(v.shards) {
		return false
	}
	if v.shards[s].spilled || v.shards[s+1].spilled {
		return false
	}
	dst, src := v.shards[s], v.shards[s+1]
	gateHi := ^uint64(0)
	if s+2 < len(v.shards) {
		gateHi = v.shards[s+2].lo
	}
	v.gate.open(dst.lo, gateHi)
	defer v.gate.close()
	v.ops.drain(p, src.mp.ID())
	v.ops.drain(p, dst.mp.ID())
	lo, hi := src.lo, v.hiOf(s+1)
	home := src.mp.Location()
	ids, vals, sizes, err := src.mp.Scan(p, home, lo+1, hi+1)
	if err == nil && len(ids) > 0 {
		err = dst.mp.PutBatch(p, home, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes})
	}
	if err != nil {
		return false
	}
	v.shards = append(v.shards[:s+1], v.shards[s+2:]...)
	v.publishIndex(p)
	src.mp.Destroy()
	v.Merges++
	v.sys.Trace.Emitf(v.sys.K.Now(), obs.KindMerge, v.name,
		int(home), int(dst.mp.Location()), "%d shards", len(v.shards))
	return true
}

// publishIndex writes the routing table to the index proclet (clients
// read their cached copy; the write keeps the authoritative copy
// current for recovery and for cold clients).
func (v *Vector[T]) publishIndex(p *sim.Proc) {
	table := make([]uint64, len(v.shards))
	for i, s := range v.shards {
		table[i] = s.lo
	}
	// 16 bytes per entry: range start + proclet id.
	v.index.Put(p, v.index.Location(), indexObjID, table, int64(16*len(table)))
}

// Adapt implements core.Adaptive: split oversized shards, merge
// adjacent underfull neighbours.
func (v *Vector[T]) Adapt(p *sim.Proc) {
	if v.closed || !v.adaptMu.TryLock() {
		return
	}
	defer v.adaptMu.Unlock()
	for s := 0; s < len(v.shards); s++ {
		if v.shards[s].spilled {
			continue
		}
		if v.shards[s].mp.HeapBytes() > v.opts.MaxShardBytes {
			v.splitShard(p, s)
		}
	}
	mergeMax := int64(float64(v.opts.MaxShardBytes) * v.opts.MergeFraction)
	for s := 0; s+1 < len(v.shards); s++ {
		if v.shards[s].spilled || v.shards[s+1].spilled {
			continue
		}
		if v.shards[s].mp.HeapBytes()+v.shards[s+1].mp.HeapBytes() < mergeMax {
			if v.mergeShards(p, s) {
				s-- // re-examine the merged shard with its next neighbour
			}
		}
	}
}

// Close destroys all resident shards and the index. Spilled shards'
// storage objects are left for the storage tier's owner to reclaim
// (Flat.Close destroys the proclets holding them).
func (v *Vector[T]) Close() {
	if v.closed {
		return
	}
	v.closed = true
	for _, s := range v.shards {
		if s.mp != nil {
			s.mp.Destroy()
		}
	}
	v.index.Destroy()
}
