package sharded

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// indexObjID is the object holding the routing table inside a
// structure's index proclet.
const indexObjID = 1

// table is the range table Map and Vector share: shards sorted by range
// start, each a memory proclet, with a pinned index proclet holding the
// routing table. It owns the §3.3 restructuring protocol — the split
// gate and op drain that give a restructure an atomic view, split,
// merge, publish, the adaptation loop and teardown. What differs
// per structure is the key space (off, end) and the value encoding.
type table struct {
	sys  *core.System
	name string
	opts Options

	shards []shard             // sorted by lo
	index  *core.MemoryProclet // pinned; holds the routing table

	// off is the object-id offset: the key at position x is stored under
	// id x+off (Vector stores element i under i+1, Map a hash as itself).
	off uint64
	// end is the last shard's exclusive bound: ^uint64(0) for Map, the
	// element count for Vector.
	end uint64

	gate      splitGate
	ops       *opTracker
	adaptMu   sim.Mutex
	nextShard int
	closed    bool

	// Splits and Merges count structural adaptations.
	Splits int64
	Merges int64
}

// shard is one index entry: the shard holding keys [lo, next.lo). A
// spilled Vector shard has mp == nil and its contents in the storage
// tier (see tiering.go).
type shard struct {
	lo uint64
	mp *core.MemoryProclet

	spilled    bool
	spillBytes int64
	lastAccess sim.Time
}

// init creates the index proclet and the first shard, and registers
// the structure with the adaptation loop when its options ask.
func (t *table) init(sys *core.System, name string, opts Options, off, end uint64) error {
	*t = table{sys: sys, name: name, opts: opts, off: off, end: end, ops: newOpTracker()}
	idx, err := sys.NewMemoryProclet(name+".index", 4096)
	if err != nil {
		return err
	}
	t.index = idx
	sys.Sched.Pin(idx.ID())
	sh, err := t.newShard()
	if err != nil {
		return err
	}
	t.shards = []shard{{lo: 0, mp: sh}}
	if opts.AutoAdapt {
		sys.Sched.RegisterAdaptive(t)
	}
	return nil
}

func (t *table) newShard() (*core.MemoryProclet, error) {
	t.nextShard++
	return t.sys.NewMemoryProclet(fmt.Sprintf("%s.shard-%d", t.name, t.nextShard), t.opts.MaxShardBytes/2)
}

// NumShards returns the current shard count.
func (t *table) NumShards() int { return len(t.shards) }

// Shards returns the backing memory proclets in range order; spilled
// shards contribute nil entries.
func (t *table) Shards() []*core.MemoryProclet {
	out := make([]*core.MemoryProclet, len(t.shards))
	for i, s := range t.shards {
		out[i] = s.mp
	}
	return out
}

// shardIdx returns the index of the shard covering key x.
func (t *table) shardIdx(x uint64) int {
	return sort.Search(len(t.shards), func(s int) bool { return t.shards[s].lo > x }) - 1
}

// hiOf returns the exclusive upper bound of shard s.
func (t *table) hiOf(s int) uint64 {
	if s == len(t.shards)-1 {
		return t.end
	}
	return t.shards[s+1].lo
}

// publishIndex writes the routing table to the index proclet (clients
// read their cached copy; the write keeps the authoritative copy
// current for recovery and for cold clients).
func (t *table) publishIndex(p *sim.Proc) {
	routes := make([]uint64, len(t.shards))
	for i, s := range t.shards {
		routes[i] = s.lo
	}
	// 16 bytes per entry: range start + proclet id.
	t.index.Put(p, t.index.Location(), indexObjID, routes, int64(16*len(routes)))
}

// splitShard splits shard s at the midpoint of its range. It gates the
// shard's whole range — for the last shard an open-ended one, since
// Vector appends reserve keys past the current end — drains the shard,
// and only then takes the bounds. Spilled shards are not split (they
// have no resident proclet), nor are shards of one object (a Map
// bucket, a Vector element): halving the range would move that object
// or nothing and leave the shard as large as before. Caller holds
// adaptMu.
func (t *table) splitShard(p *sim.Proc, s int) bool {
	if t.shards[s].spilled || t.shards[s].mp.NumObjects() < 2 {
		return false
	}
	src := t.shards[s].mp
	dst, err := t.newShard()
	if err != nil {
		return false // no capacity anywhere; leave the shard oversized
	}
	lo := t.shards[s].lo
	gateHi := ^uint64(0)
	if s+1 < len(t.shards) {
		gateHi = t.shards[s+1].lo
	}
	t.gate.open(lo, gateHi)
	defer t.gate.close()
	t.ops.drain(p, src.ID())
	hi := t.hiOf(s)
	if hi-lo < 2 {
		dst.Destroy()
		return false
	}
	mid := lo + (hi-lo)/2
	home := src.Location()
	ids, vals, sizes, err := src.Scan(p, home, mid+t.off, hi+t.off)
	if err == nil && len(ids) > 0 {
		err = dst.PutBatch(p, home, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes})
	}
	if err != nil {
		dst.Destroy()
		return false
	}
	// Publish the new routing before deleting from the source so
	// readers always find their key on one side or the other.
	t.shards = append(t.shards, shard{})
	copy(t.shards[s+2:], t.shards[s+1:])
	t.shards[s+1] = shard{lo: mid, mp: dst}
	t.publishIndex(p)
	if len(ids) > 0 {
		if err := src.DelRange(p, home, mid+t.off, hi+t.off); err != nil {
			return false
		}
	}
	t.Splits++
	t.sys.Trace.Emitf(t.sys.K.Now(), obs.KindSplit, t.name,
		int(src.Location()), int(dst.Location()), "shard %d at %d, %d shards", s, mid, len(t.shards))
	return true
}

// mergeShards merges shard s+1 into shard s — the paper's answer to
// structures left sparse after heavy deletes (§3.3). It gates both
// ranges, drains both shards, and only then takes the bounds, which a
// Vector append may have moved meanwhile. Caller holds adaptMu.
func (t *table) mergeShards(p *sim.Proc, s int) bool {
	if s+1 >= len(t.shards) {
		return false
	}
	if t.shards[s].spilled || t.shards[s+1].spilled {
		return false
	}
	dst, src := t.shards[s], t.shards[s+1]
	gateHi := ^uint64(0)
	if s+2 < len(t.shards) {
		gateHi = t.shards[s+2].lo
	}
	t.gate.open(dst.lo, gateHi)
	defer t.gate.close()
	t.ops.drain(p, src.mp.ID())
	t.ops.drain(p, dst.mp.ID())
	lo, hi := src.lo, t.hiOf(s+1)
	home := src.mp.Location()
	ids, vals, sizes, err := src.mp.Scan(p, home, lo+t.off, hi+t.off)
	if err == nil && len(ids) > 0 {
		err = dst.mp.PutBatch(p, home, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes})
	}
	if err != nil {
		return false
	}
	t.shards = append(t.shards[:s+1], t.shards[s+2:]...)
	t.publishIndex(p)
	src.mp.Destroy()
	t.Merges++
	t.sys.Trace.Emitf(t.sys.K.Now(), obs.KindMerge, t.name,
		int(home), int(dst.mp.Location()), "%d shards", len(t.shards))
	return true
}

// Adapt implements core.Adaptive: split oversized shards, then merge
// adjacent neighbours whose combined size is below half the cap.
// Spilled shards take part in neither.
func (t *table) Adapt(p *sim.Proc) {
	if t.closed || !t.adaptMu.TryLock() {
		return
	}
	defer t.adaptMu.Unlock()
	for s := 0; s < len(t.shards); s++ {
		if !t.shards[s].spilled && t.shards[s].mp.HeapBytes() > t.opts.MaxShardBytes {
			t.splitShard(p, s)
		}
	}
	mergeMax := t.opts.MaxShardBytes / 2
	for s := 0; s+1 < len(t.shards); s++ {
		if t.shards[s].spilled || t.shards[s+1].spilled {
			continue
		}
		if t.shards[s].mp.HeapBytes()+t.shards[s+1].mp.HeapBytes() < mergeMax {
			if t.mergeShards(p, s) {
				s-- // re-examine the merged shard with its next neighbour
			}
		}
	}
}

// close destroys all resident shards and the index. Spilled shards'
// storage objects are left for the storage tier's owner to reclaim.
func (t *table) close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, s := range t.shards {
		if s.mp != nil {
			s.mp.Destroy()
		}
	}
	t.index.Destroy()
}
