package fleet

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Ledger is an experiment's durable source: the keys whose writes each
// store acknowledged, kept host-side where no simulated crash reaches.
// A key's value is val(key) and every object has one size, so a set of
// keys is the whole record: Put, Preload, Server and Rebuild write it,
// Verify reads it back. A ledger belongs to the shard of its stores and
// is touched only in that shard's context.
type Ledger struct {
	stores []*core.MemoryProclet
	acked  []ackedKeys // per store
	size   int64
}

// ackedKeys is one store's record: the first sorted keys ascending and
// distinct, the rest as Ack appended them.
type ackedKeys struct {
	keys   []uint64
	sorted int
}

// val is the scalar every store holds under key.
func val(key uint64) int64 { return int64(key ^ 0x9e3779b97f4a7c15) }

// verifyChunk bounds the keys of one read-back GetBatch.
const verifyChunk = 64

// NewLedger starts an empty record for stores, whose objects are size
// bytes each.
func NewLedger(stores []*core.MemoryProclet, size int64) *Ledger {
	return &Ledger{stores: stores, acked: make([]ackedKeys, len(stores)), size: size}
}

// Objects returns keys 0..n-1 as a batch of size-byte objects holding
// their values: what every store of a run is preloaded with, built once
// and only read after.
func Objects(n int, size int64) *core.Batch {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	b := &core.Batch{}
	(&Ledger{size: size}).WriteBatch(ids, b)
	return b
}

// WriteBatch points into at a write of keys: each key's value, at the
// ledger's object size, in into's value and size slices.
func (l *Ledger) WriteBatch(keys []uint64, into *core.Batch) {
	into.IDs, into.Vals, into.Sizes = keys, slices.Grow(into.Vals[:0], len(keys)), slices.Grow(into.Sizes[:0], len(keys))
	for _, k := range keys {
		into.Vals = append(into.Vals, core.Int(val(k)))
		into.Sizes = append(into.Sizes, l.size)
	}
}

// Put writes key to stores[store] from machine from, and acks it once
// the store has.
func (l *Ledger) Put(p *sim.Proc, from cluster.MachineID, store int, key uint64) error {
	err := l.stores[store].PutInt(p, from, key, val(key), l.size)
	if err == nil {
		l.Ack(store, key)
	}
	return err
}

// Preload acks objs in every store, then writes them to each store in
// store order from machine 0; the first store that refuses them ends it.
func (l *Ledger) Preload(p *sim.Proc, objs *core.Batch) error {
	for i := range l.stores {
		l.Ack(i, objs.IDs...)
	}
	for i, mp := range l.stores {
		if err := mp.PutBatch(p, 0, objs); err != nil {
			return fmt.Errorf("preload of store %d (%d objects of %d bytes): %w", i, len(objs.IDs), l.size, err)
		}
	}
	return nil
}

// Ack records that stores[store] acknowledged writes of keys: an append.
// Repeats are squeezed out once the appended tail outgrows the sorted
// prefix, so a store's record never holds more than twice its distinct
// keys plus one call's, however often the same keys are acked.
func (l *Ledger) Ack(store int, keys ...uint64) {
	a := &l.acked[store]
	a.keys = append(a.keys, keys...)
	if len(a.keys) > 2*a.sorted {
		a.compact()
	}
}

// compact sorts the keys and drops the repeats, in place.
func (a *ackedKeys) compact() {
	slices.Sort(a.keys)
	a.keys = slices.Compact(a.keys)
	a.sorted = len(a.keys)
}

// Keys returns a copy of stores[store]'s acked keys ascending — the fixed
// order every walk of the record uses, so runs stay deterministic.
func (l *Ledger) Keys(store int) []uint64 {
	a := &l.acked[store]
	if len(a.keys) > a.sorted {
		a.compact()
	}
	return slices.Clone(a.keys)
}

// Rebuild is a core.Rebuilder: it restores a crash-lost store by writing
// back everything it had acked in one batch. Proclets the ledger does
// not track are left empty.
func (l *Ledger) Rebuild(p *sim.Proc, mp *core.MemoryProclet) error {
	for i, st := range l.stores {
		if st.ID() != mp.ID() {
			continue
		}
		b := &core.Batch{}
		l.WriteBatch(l.Keys(i), b)
		return mp.PutBatch(p, 0, b)
	}
	return nil
}

// Verify reads back every every-th acked key of each store from machine
// 0, in GetBatch calls of up to verifyChunk keys, and returns how many
// are missing or hold the wrong value; a call that fails counts all its
// keys. The sampled keys are packed to the front of the copy Keys
// returns, and each call reads a sub-slice of it.
func (l *Ledger) Verify(p *sim.Proc, every int) (lost int64) {
	var rb core.Batch
	for i, mp := range l.stores {
		keys := l.Keys(i)
		n := 0
		for j := 0; j < len(keys); j += every {
			keys[n] = keys[j]
			n++
		}
		keys = keys[:n]
		for len(keys) > 0 {
			chunk := keys[:min(verifyChunk, len(keys))]
			keys = keys[len(chunk):]
			// Every key counts as lost but those the call returned (each
			// once) holding their value.
			lost += int64(len(chunk))
			if mp.GetBatch(p, 0, chunk, &rb) != nil {
				continue
			}
			for j, k := range rb.IDs {
				if v, ok := rb.Vals[j].Int(); ok && v == val(k) {
					lost--
				}
			}
		}
	}
	return lost
}
