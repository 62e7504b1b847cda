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
// Verify reads it back. A store's record is the preload, held once for
// every store, merged with the writes the store itself acked. A ledger
// belongs to the shard of its stores and is touched only in that
// shard's context.
type Ledger struct {
	stores []*core.MemoryProclet
	base   []uint64    // the preload, ascending and distinct: every store's, read-only
	acked  []ackedKeys // per store: the writes it acked
	size   int64
}

// ackedKeys is one store's acked writes: the first sorted keys ascending
// and distinct, the rest as Ack appended them.
type ackedKeys struct {
	keys   []uint64
	sorted int
	walks  int // Verify walks in flight over keys[:sorted], which compact must not reorder
}

// val is the scalar every store holds under key.
func val(key uint64) int64 { return int64(key ^ 0x9e3779b97f4a7c15) }

// verifyChunk bounds the keys of one read-back GetBatch.
const verifyChunk = 64

// NewLedger starts an empty record for stores, whose objects are size
// bytes each. Each store's acked writes start with room for verifyChunk
// keys, carved from one array.
func NewLedger(stores []*core.MemoryProclet, size int64) *Ledger {
	l := &Ledger{stores: stores, acked: make([]ackedKeys, len(stores)), size: size}
	room := make([]uint64, len(stores)*verifyChunk)
	for i := range l.acked {
		l.acked[i].keys = room[i*verifyChunk : i*verifyChunk : (i+1)*verifyChunk]
	}
	return l
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

// Preload makes objs every store's record, then writes them to each
// store in store order from machine 0; the first store that refuses them
// ends it. The ledger keeps objs.IDs, which must be ascending and
// distinct, as Objects builds them, and read-only from here on. A
// ledger is preloaded once.
func (l *Ledger) Preload(p *sim.Proc, objs *core.Batch) error {
	if l.base != nil {
		panic(fmt.Sprintf("fleet: Ledger.Preload of %d objects into a ledger already preloaded with %d", len(objs.IDs), len(l.base)))
	}
	for i := 1; i < len(objs.IDs); i++ {
		if objs.IDs[i] <= objs.IDs[i-1] {
			panic(fmt.Sprintf("fleet: Ledger.Preload of keys that are not ascending and distinct: key %d at index %d follows %d", objs.IDs[i], i, objs.IDs[i-1]))
		}
	}
	l.base = objs.IDs
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

// compact sorts the keys and drops the repeats — in place, unless a walk
// is reading the sorted prefix, which then keeps the array it reads.
func (a *ackedKeys) compact() {
	if a.walks > 0 {
		a.keys = slices.Clone(a.keys)
	}
	slices.Sort(a.keys)
	a.keys = slices.Compact(a.keys)
	a.sorted = len(a.keys)
}

// merge walks the union of two ascending, distinct key lists in order.
type merge struct{ a, b []uint64 }

// walk compacts stores[store]'s acked writes and returns the walk of its
// record: the preload merged with them.
func (l *Ledger) walk(store int) merge {
	a := &l.acked[store]
	if len(a.keys) > a.sorted {
		a.compact()
	}
	return merge{l.base, a.keys}
}

// next returns the next key of the walk, or false once it is over.
func (m *merge) next() (k uint64, ok bool) {
	switch a, b := m.a, m.b; {
	case len(a) > 0 && (len(b) == 0 || a[0] <= b[0]):
		k, m.a = a[0], a[1:]
		if len(b) > 0 && b[0] == k {
			m.b = b[1:]
		}
	case len(b) > 0:
		k, m.b = b[0], b[1:]
	default:
		return 0, false
	}
	return k, true
}

// Keys returns stores[store]'s record ascending, in a slice of the
// caller's — the fixed order every walk of the record uses, so runs stay
// deterministic.
func (l *Ledger) Keys(store int) []uint64 {
	m := l.walk(store)
	keys := make([]uint64, 0, len(m.a)+len(m.b))
	for k, ok := m.next(); ok; k, ok = m.next() {
		keys = append(keys, k)
	}
	return keys
}

// Rebuild is a core.Rebuilder: it restores a crash-lost store by writing
// back its whole record in one batch, which owns its keys while acks
// continue. Proclets the ledger does not track are left empty.
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

// Verify reads back every every-th key of each store's record from
// machine 0, in GetBatch calls of up to verifyChunk keys, and returns how
// many are missing or hold the wrong value; a call that fails counts all
// its keys. Every call reads into one batch, sized once. every must be
// at least 1.
func (l *Ledger) Verify(p *sim.Proc, every int) (lost int64) {
	rb := batchOf(verifyChunk)
	l.chunks(every, func(store int, chunk []uint64) {
		// Every key counts as lost but those the call returned (each
		// once) holding their value.
		lost += int64(len(chunk))
		if l.stores[store].GetBatch(p, 0, chunk, &rb) != nil {
			return
		}
		for j, k := range rb.IDs {
			if v, ok := rb.Vals[j].Int(); ok && v == val(k) {
				lost--
			}
		}
	})
	return lost
}

// chunks walks each store's record in place, in store order, and hands
// read every every-th key of it in chunks of up to verifyChunk, packed
// into one buffer that read may not keep. An ack that lands while read
// waits does not reach the walk in hand.
func (l *Ledger) chunks(every int, read func(store int, chunk []uint64)) {
	if every < 1 {
		panic(fmt.Sprintf("fleet: Ledger.Verify with every %d: a read-back samples at least every key once", every))
	}
	chunk := make([]uint64, 0, verifyChunk)
	for i := range l.stores {
		m := l.walk(i)
		a := &l.acked[i]
		a.walks++
		for j := 0; ; j++ {
			k, ok := m.next()
			if ok && j%every == 0 {
				chunk = append(chunk, k)
			}
			if len(chunk) == verifyChunk || !ok && len(chunk) > 0 {
				read(i, chunk)
				chunk = chunk[:0]
			}
			if !ok {
				break
			}
		}
		a.walks--
	}
}

// batchOf returns an empty batch with room for n objects.
func batchOf(n int) core.Batch {
	return core.Batch{IDs: make([]uint64, 0, n), Vals: make([]core.Value, 0, n), Sizes: make([]int64, 0, n)}
}
