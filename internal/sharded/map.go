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

// mapEntry is one key/value pair inside a hash bucket.
type mapEntry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

// Map is a sharded hash map: keys hash into a uint64 space partitioned
// into ranges, each range stored in its own memory proclet. Mutations
// ship an update closure to the owning shard (compute-to-data), so a
// put or delete costs one invocation.
type Map[K comparable, V any] struct {
	sys  *core.System
	name string
	opts Options

	shards []mshard // sorted by lo (hash-space range starts)
	count  int64

	index *core.MemoryProclet

	gate      splitGate
	ops       *opTracker
	adaptMu   sim.Mutex
	nextShard int
	closed    bool

	// Splits and Merges count structural adaptations.
	Splits int64
	Merges int64
}

type mshard struct {
	lo uint64
	mp *core.MemoryProclet
}

// NewMap creates a sharded map with one initial shard.
func NewMap[K comparable, V any](sys *core.System, name string, opts Options) (*Map[K, V], error) {
	opts = opts.withDefaults(sys)
	m := &Map[K, V]{sys: sys, name: name, opts: opts, ops: newOpTracker()}
	idx, err := sys.NewMemoryProclet(name+".index", 4096)
	if err != nil {
		return nil, err
	}
	if idx, err = replicate(sys, idx, opts); err != nil {
		return nil, err
	}
	m.index = idx
	sys.Sched.Pin(idx.ID())
	sh, err := m.newShard()
	if err != nil {
		return nil, err
	}
	m.shards = []mshard{{lo: 0, mp: sh}}
	if opts.AutoAdapt {
		sys.Sched.RegisterAdaptive(m)
	}
	return m, nil
}

func (m *Map[K, V]) newShard() (*core.MemoryProclet, error) {
	m.nextShard++
	mp, err := m.sys.NewMemoryProclet(fmt.Sprintf("%s.shard-%d", m.name, m.nextShard), m.opts.MaxShardBytes/2)
	if err != nil {
		return nil, err
	}
	return replicate(m.sys, mp, m.opts)
}

// Name returns the map's name.
func (m *Map[K, V]) Name() string { return m.name }

// Len returns the number of keys.
func (m *Map[K, V]) Len() int64 { return m.count }

// NumShards returns the shard count.
func (m *Map[K, V]) NumShards() int { return len(m.shards) }

// Shards returns the backing memory proclets in hash order.
func (m *Map[K, V]) Shards() []*core.MemoryProclet {
	out := make([]*core.MemoryProclet, len(m.shards))
	for i, s := range m.shards {
		out[i] = s.mp
	}
	return out
}

func (m *Map[K, V]) shardIdx(h uint64) int {
	return sort.Search(len(m.shards), func(s int) bool { return m.shards[s].lo > h }) - 1
}

func (m *Map[K, V]) hiOf(s int) uint64 {
	if s == len(m.shards)-1 {
		return ^uint64(0)
	}
	return m.shards[s+1].lo
}

// Put inserts or replaces a key. bytes is the value's accounted size.
func (m *Map[K, V]) Put(p *sim.Proc, from cluster.MachineID, key K, val V, bytes int64) error {
	if m.closed {
		return ErrClosed
	}
	h := hashKey(key)
	m.gate.wait(p, h)
	sh := m.shards[m.shardIdx(h)]
	m.ops.enter(sh.mp.ID())
	inserted := false
	entryBytes := bytes + 16 // key material
	err := sh.mp.Update(p, from, h, entryBytes, func(old any, exists bool) (any, int64, bool) {
		var bucket []mapEntry[K, V]
		if exists {
			bucket = old.([]mapEntry[K, V])
		}
		var total int64
		replaced := false
		for i := range bucket {
			if bucket[i].key == key {
				bucket[i] = mapEntry[K, V]{key: key, val: val, bytes: entryBytes}
				replaced = true
			}
			total += bucket[i].bytes
		}
		if !replaced {
			bucket = append(bucket, mapEntry[K, V]{key: key, val: val, bytes: entryBytes})
			total += entryBytes
			inserted = true
		}
		return bucket, total, true
	})
	if errors.Is(err, cluster.ErrNoMemory) {
		if m.sys.Sched.FreeUpMemory(p, sh.mp.Location(), entryBytes*4) {
			err = sh.mp.Update(p, from, h, entryBytes, func(old any, exists bool) (any, int64, bool) {
				var bucket []mapEntry[K, V]
				if exists {
					bucket = old.([]mapEntry[K, V])
				}
				var total int64
				for i := range bucket {
					total += bucket[i].bytes
				}
				bucket = append(bucket, mapEntry[K, V]{key: key, val: val, bytes: entryBytes})
				inserted = true
				return bucket, total + entryBytes, true
			})
		}
	}
	// Release the op entry before any split: splitShard drains the
	// shard's in-flight operations and must not wait on ourselves.
	m.ops.exit(sh.mp.ID())
	if err != nil {
		return err
	}
	if inserted {
		m.count++
	}
	// Keep the shard within the migration budget.
	if sh.mp.HeapBytes() > m.opts.MaxShardBytes {
		m.adaptMu.Lock(p)
		m.splitShard(p, m.shardIdx(h))
		m.adaptMu.Unlock()
	}
	return nil
}

// Get fetches a key's value. Returns ErrNotFound for absent keys.
func (m *Map[K, V]) Get(p *sim.Proc, from cluster.MachineID, key K) (V, error) {
	var zero V
	h := hashKey(key)
	for retry := 0; retry < 4; retry++ {
		m.gate.wait(p, h)
		sh := m.shards[m.shardIdx(h)]
		m.ops.enter(sh.mp.ID())
		val, err := sh.mp.Get(p, from, h)
		m.ops.exit(sh.mp.ID())
		if errors.Is(err, core.ErrNoObject) {
			// Either truly absent or raced a split; re-check routing.
			if m.shards[m.shardIdx(h)].mp == sh.mp && !m.gate.active {
				return zero, fmt.Errorf("%w: %v", ErrNotFound, key)
			}
			continue
		}
		if err != nil {
			return zero, err
		}
		for _, e := range val.([]mapEntry[K, V]) {
			if e.key == key {
				return e.val, nil
			}
		}
		return zero, fmt.Errorf("%w: %v", ErrNotFound, key)
	}
	return zero, fmt.Errorf("sharded: key %v unroutable after retries", key)
}

// GetBatch fetches many keys in one fan-in round: keys are grouped by
// owning shard (ascending shard order, so invocation order is
// deterministic) and each touched shard serves a single mem.getbatch
// invocation instead of one RPC per key. Returns values aligned with
// keys plus a found mask. Keys the batch pass misses — genuinely absent
// or raced by a concurrent split — are re-checked individually through
// Get, which owns the split-retry protocol, so the mask is
// authoritative.
func (m *Map[K, V]) GetBatch(p *sim.Proc, from cluster.MachineID, keys []K) ([]V, []bool, error) {
	vals := make([]V, len(keys))
	found := make([]bool, len(keys))
	if len(keys) == 0 {
		return vals, found, nil
	}
	hs := make([]uint64, len(keys))
	si := make([]int, len(keys))
	for i, key := range keys {
		hs[i] = hashKey(key)
		m.gate.wait(p, hs[i])
		si[i] = m.shardIdx(hs[i])
	}
	var ids []uint64
	var members []int
	var got core.Batch // consumed before the next shard's call refills it
	for s := 0; s < len(m.shards); s++ {
		ids = ids[:0]
		members = members[:0]
		for i := range keys {
			if si[i] == s {
				ids = append(ids, hs[i])
				members = append(members, i)
			}
		}
		if len(ids) == 0 {
			continue
		}
		sh := m.shards[s]
		m.ops.enter(sh.mp.ID())
		err := sh.mp.GetBatch(p, from, ids, &got)
		m.ops.exit(sh.mp.ID())
		if err != nil {
			return nil, nil, err
		}
		buckets := make(map[uint64]any, len(got.IDs))
		for j, id := range got.IDs {
			buckets[id] = got.Vals[j].Any()
		}
		for _, i := range members {
			bv, ok := buckets[hs[i]]
			if !ok {
				continue
			}
			for _, e := range bv.([]mapEntry[K, V]) {
				if e.key == keys[i] {
					vals[i] = e.val
					found[i] = true
					break
				}
			}
		}
	}
	for i := range keys {
		if found[i] {
			continue
		}
		v, err := m.Get(p, from, keys[i])
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		vals[i] = v
		found[i] = true
	}
	return vals, found, nil
}

// Contains reports whether the key is present.
func (m *Map[K, V]) Contains(p *sim.Proc, from cluster.MachineID, key K) (bool, error) {
	_, err := m.Get(p, from, key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Delete removes a key. Deleting an absent key is a no-op.
func (m *Map[K, V]) Delete(p *sim.Proc, from cluster.MachineID, key K) error {
	if m.closed {
		return ErrClosed
	}
	h := hashKey(key)
	m.gate.wait(p, h)
	sh := m.shards[m.shardIdx(h)]
	m.ops.enter(sh.mp.ID())
	defer m.ops.exit(sh.mp.ID())
	removed := false
	err := sh.mp.Update(p, from, h, 16, func(old any, exists bool) (any, int64, bool) {
		if !exists {
			return nil, 0, false
		}
		bucket := old.([]mapEntry[K, V])
		var kept []mapEntry[K, V]
		var total int64
		for _, e := range bucket {
			if e.key == key {
				removed = true
				continue
			}
			kept = append(kept, e)
			total += e.bytes
		}
		if len(kept) == 0 {
			return nil, 0, false
		}
		return kept, total, true
	})
	if err != nil {
		return err
	}
	if removed {
		m.count--
	}
	return nil
}

// splitShard splits shard s at the midpoint of its hash range. Caller
// holds adaptMu.
func (m *Map[K, V]) splitShard(p *sim.Proc, s int) bool {
	lo, hi := m.shards[s].lo, m.hiOf(s)
	mid := lo + (hi-lo)/2
	if mid == lo {
		return false
	}
	src := m.shards[s].mp
	dst, err := m.newShard()
	if err != nil {
		return false
	}
	m.gate.open(lo, hi)
	defer m.gate.close()
	m.ops.drain(p, src.ID())
	home := src.Location()
	ids, vals, sizes, err := src.Scan(p, home, mid, hi)
	if err == nil && len(ids) > 0 {
		err = dst.PutBatch(p, home, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes})
	}
	if err != nil {
		dst.Destroy()
		return false
	}
	m.shards = append(m.shards, mshard{})
	copy(m.shards[s+2:], m.shards[s+1:])
	m.shards[s+1] = mshard{lo: mid, mp: dst}
	m.publishIndex(p)
	if len(ids) > 0 {
		if err := src.DelRange(p, home, mid, hi); err != nil {
			return false
		}
	}
	m.Splits++
	m.sys.Trace.Emitf(m.sys.K.Now(), obs.KindSplit, m.name,
		int(src.Location()), int(dst.Location()), "hash mid=%x, %d shards", mid, len(m.shards))
	return true
}

// mergeShards merges shard s+1 into s — the paper's answer to hash
// tables left sparse after heavy deletes (§3.3). Caller holds adaptMu.
func (m *Map[K, V]) mergeShards(p *sim.Proc, s int) bool {
	if s+1 >= len(m.shards) {
		return false
	}
	dst, src := m.shards[s], m.shards[s+1]
	lo, hi := src.lo, m.hiOf(s+1)
	m.gate.open(dst.lo, hi)
	defer m.gate.close()
	m.ops.drain(p, src.mp.ID())
	m.ops.drain(p, dst.mp.ID())
	home := src.mp.Location()
	ids, vals, sizes, err := src.mp.Scan(p, home, lo, hi)
	if err == nil && len(ids) > 0 {
		err = dst.mp.PutBatch(p, home, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes})
	}
	if err != nil {
		return false
	}
	m.shards = append(m.shards[:s+1], m.shards[s+2:]...)
	m.publishIndex(p)
	src.mp.Destroy()
	m.Merges++
	m.sys.Trace.Emitf(m.sys.K.Now(), obs.KindMerge, m.name,
		int(home), int(dst.mp.Location()), "%d shards", len(m.shards))
	return true
}

func (m *Map[K, V]) publishIndex(p *sim.Proc) {
	table := make([]uint64, len(m.shards))
	for i, s := range m.shards {
		table[i] = s.lo
	}
	m.index.Put(p, m.index.Location(), indexObjID, table, int64(16*len(table)))
}

// Adapt implements core.Adaptive.
func (m *Map[K, V]) Adapt(p *sim.Proc) {
	if m.closed || !m.adaptMu.TryLock() {
		return
	}
	defer m.adaptMu.Unlock()
	for s := 0; s < len(m.shards); s++ {
		if m.shards[s].mp.HeapBytes() > m.opts.MaxShardBytes {
			m.splitShard(p, s)
		}
	}
	mergeMax := int64(float64(m.opts.MaxShardBytes) * m.opts.MergeFraction)
	for s := 0; s+1 < len(m.shards); s++ {
		if m.shards[s].mp.HeapBytes()+m.shards[s+1].mp.HeapBytes() < mergeMax {
			if m.mergeShards(p, s) {
				s--
			}
		}
	}
}

// Close destroys all shards and the index.
func (m *Map[K, V]) Close() {
	if m.closed {
		return
	}
	m.closed = true
	for _, s := range m.shards {
		s.mp.Destroy()
	}
	m.index.Destroy()
}

// Set is a sharded set: a Map with empty values.
type Set[K comparable] struct {
	m *Map[K, struct{}]
}

// NewSet creates a sharded set.
func NewSet[K comparable](sys *core.System, name string, opts Options) (*Set[K], error) {
	m, err := NewMap[K, struct{}](sys, name, opts)
	if err != nil {
		return nil, err
	}
	return &Set[K]{m: m}, nil
}

// Add inserts a key; bytes is its accounted size.
func (s *Set[K]) Add(p *sim.Proc, from cluster.MachineID, key K, bytes int64) error {
	return s.m.Put(p, from, key, struct{}{}, bytes)
}

// Contains reports membership.
func (s *Set[K]) Contains(p *sim.Proc, from cluster.MachineID, key K) (bool, error) {
	return s.m.Contains(p, from, key)
}

// Remove deletes a key.
func (s *Set[K]) Remove(p *sim.Proc, from cluster.MachineID, key K) error {
	return s.m.Delete(p, from, key)
}

// Len returns the member count.
func (s *Set[K]) Len() int64 { return s.m.Len() }

// NumShards returns the shard count.
func (s *Set[K]) NumShards() int { return s.m.NumShards() }

// Adapt implements core.Adaptive.
func (s *Set[K]) Adapt(p *sim.Proc) { s.m.Adapt(p) }

// Close destroys the set.
func (s *Set[K]) Close() { s.m.Close() }
