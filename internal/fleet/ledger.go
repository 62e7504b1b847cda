package fleet

import (
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// Ledger is an experiment's durable source: the keys whose writes each
// store acknowledged, kept host-side where no simulated crash reaches.
// A key's value is a pure function of the key and every object has one
// size, so a set of keys is the whole record — replay, rebuild and
// verification agree without coordination. A ledger belongs to the shard
// of its stores and is touched only in that shard's context.
type Ledger struct {
	stores []*core.MemoryProclet
	acked  []ackedKeys // per store
	size   int64
	val    func(key uint64) int64
}

// ackedKeys is one store's record: the first sorted keys ascending and
// distinct, the rest as Ack appended them.
type ackedKeys struct {
	keys   []uint64
	sorted int
}

// NewLedger starts an empty record for stores, whose objects are size
// bytes and hold the scalar val(key): writers store it with PutInt or as
// core.Int in a batch, which is how Rebuild writes it and Verify reads it.
func NewLedger(stores []*core.MemoryProclet, size int64, val func(key uint64) int64) *Ledger {
	return &Ledger{stores: stores, acked: make([]ackedKeys, len(stores)), size: size, val: val}
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
		b := &core.Batch{IDs: l.Keys(i)}
		b.Vals = make([]core.Value, len(b.IDs))
		b.Sizes = make([]int64, len(b.IDs))
		for j, k := range b.IDs {
			b.Vals[j], b.Sizes[j] = core.Int(l.val(k)), l.size
		}
		return mp.PutBatch(p, 0, b)
	}
	return nil
}

// Verify reads back every every-th acked key of each store from machine
// 0 and returns how many are unreadable or hold the wrong value.
func (l *Ledger) Verify(p *sim.Proc, every int) (lost int64) {
	for i, mp := range l.stores {
		keys := l.Keys(i)
		for j := 0; j < len(keys); j += every {
			got, ok, err := mp.GetInt(p, 0, keys[j])
			if err != nil || !ok || got != l.val(keys[j]) {
				lost++
			}
		}
	}
	return lost
}
