package sharded

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
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
	table
	count int64
}

// NewMap creates a sharded map with one initial shard.
func NewMap[K comparable, V any](sys *core.System, name string, opts Options) (*Map[K, V], error) {
	m := &Map[K, V]{}
	// A hash is its own object id, and the last shard runs to the top of
	// the hash space.
	if err := m.init(sys, name, opts.withDefaults(), 0, ^uint64(0)); err != nil {
		return nil, err
	}
	return m, nil
}

// Len returns the number of keys.
func (m *Map[K, V]) Len() int64 { return m.count }

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
	// One update for both attempts. It builds a new bucket rather than
	// writing into the stored one, so a write the machine refuses leaves
	// the key as it was.
	update := func(old any, exists bool) (any, int64, bool) {
		var bucket []mapEntry[K, V]
		if exists {
			bucket = old.([]mapEntry[K, V])
		}
		next := make([]mapEntry[K, V], 0, len(bucket)+1)
		total := entryBytes
		for _, e := range bucket {
			if e.key != key {
				next = append(next, e)
				total += e.bytes
			}
		}
		inserted = len(next) == len(bucket)
		return append(next, mapEntry[K, V]{key: key, val: val, bytes: entryBytes}), total, true
	}
	err := relieved(p, m.sys, sh.mp, entryBytes*4, func() error {
		return sh.mp.Update(p, from, h, entryBytes, update)
	})
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
