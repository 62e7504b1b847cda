package core

import (
	"math/bits"
	"slices"
)

// Value is what a memory proclet stores under an object id: a 64-bit
// scalar held inline, or a reference to anything else. It is the one
// representation a stored object has from the caller's Batch through the
// object table, the replication log and a resync snapshot to the backup's
// table, so a scalar is never boxed on the way. The zero Value is
// Ref(nil).
type Value struct {
	ref any // inlineInt{} marks a scalar, held in n
	n   int64
}

// inlineInt is the ref of a scalar Value. Being zero-sized it costs no
// allocation to store in an interface.
type inlineInt struct{}

// Int is the Value holding v inline.
func Int(v int64) Value { return Value{ref: inlineInt{}, n: v} }

// Ref is the Value referring to v.
func Ref(v any) Value { return Value{ref: v} }

// Int returns the scalar a Value made by Int holds; ok is false for a
// reference.
func (v Value) Int() (n int64, ok bool) {
	_, ok = v.ref.(inlineInt)
	return v.n, ok
}

// Any returns what was stored: the referenced value, or a scalar as an
// int64 (boxing it; callers that expect scalars use Int).
func (v Value) Any() any {
	if _, ok := v.ref.(inlineInt); ok {
		return v.n
	}
	return v.ref
}

// objEntry is one stored object inside a memory proclet.
type objEntry struct {
	val   Value
	bytes int64
}

// objTable is a memory proclet's object table: open addressing with
// linear probing over a power-of-two array, at most 7/8 full. A read, an
// overwrite and an insert each cost one probe sequence; a delete shifts
// the rest of its cluster back, so there are no tombstones and a table
// that churns never degrades. Growth doubles and rehashes, and reserve
// lets a caller that knows how much is coming pay for it once.
//
// A slot holds the id and the scalar half of the entry; the reference
// halves live in a parallel array that does not exist until the first
// reference is stored, so a table of scalars costs 24 bytes a slot.
// Iteration order is slot order, which depends on capacity and history:
// everything that walks the table goes through ids, which sorts.
type objTable struct {
	slots []objSlot
	refs  []any // refs[i] is slot i's Value.ref; nil while every value is a scalar
	n     int   // occupied slots
	shift uint  // 64 - log2(len(slots)): home takes the product's top bits

	// top is the object under topID, whose key would read as an empty slot.
	top    objEntry
	hasTop bool
}

type objSlot struct {
	key   uint64 // id+1; 0 marks the slot empty
	n     int64
	bytes int64
}

const (
	topID       = ^uint64(0)
	minTableCap = 8
)

// len returns the number of stored objects.
func (t *objTable) len() int {
	if t.hasTop {
		return t.n + 1
	}
	return t.n
}

// home is where id's probe sequence starts. Fibonacci hashing: dense ids
// (vector elements, preloads) land evenly spread and already-hashed ids
// stay uniform.
func (t *objTable) home(id uint64) int {
	return int(id * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns id's slot, or the empty slot that ends its probe sequence.
// The table must have slots and id must not be topID.
func (t *objTable) find(id uint64) (i int, found bool) {
	mask := len(t.slots) - 1
	for i = t.home(id); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case id + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// entry assembles slot i's object.
func (t *objTable) entry(i int) objEntry {
	s := &t.slots[i]
	e := objEntry{val: Value{ref: inlineInt{}, n: s.n}, bytes: s.bytes}
	if t.refs != nil {
		e.val.ref = t.refs[i]
	}
	return e
}

// get returns the object stored under id.
func (t *objTable) get(id uint64) (objEntry, bool) {
	if id == topID {
		return t.top, t.hasTop
	}
	if t.n == 0 {
		return objEntry{}, false
	}
	i, found := t.find(id)
	if !found {
		return objEntry{}, false
	}
	return t.entry(i), true
}

// put stores e under id and returns what it displaced.
func (t *objTable) put(id uint64, e objEntry) (old objEntry, existed bool) {
	if id == topID {
		old, existed = t.top, t.hasTop
		t.top, t.hasTop = e, true
		return old, existed
	}
	if len(t.slots) == 0 {
		t.rehash(minTableCap)
	}
	i, existed := t.find(id)
	if existed {
		old = t.entry(i)
	} else {
		if (t.n+1)*8 > len(t.slots)*7 {
			t.rehash(2 * len(t.slots))
			i, _ = t.find(id)
		}
		t.slots[i].key = id + 1
		t.n++
	}
	s := &t.slots[i]
	s.n, s.bytes = e.val.n, e.bytes
	if _, scalar := e.val.ref.(inlineInt); !scalar && t.refs == nil {
		// The first reference: every value so far is a scalar.
		t.refs = make([]any, len(t.slots))
		for j := range t.refs {
			t.refs[j] = inlineInt{}
		}
	}
	if t.refs != nil {
		t.refs[i] = e.val.ref
	}
	return old, existed
}

// del removes the object stored under id and returns it.
func (t *objTable) del(id uint64) (old objEntry, existed bool) {
	if id == topID {
		old, existed = t.top, t.hasTop
		t.top, t.hasTop = objEntry{}, false
		return old, existed
	}
	if t.n == 0 {
		return objEntry{}, false
	}
	i, found := t.find(id)
	if !found {
		return objEntry{}, false
	}
	old = t.entry(i)
	// Backward shift: walk the cluster after the hole and pull back every
	// entry whose home is not past the hole, so no probe sequence is cut.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j].key - 1); (j-h)&mask >= (j-i)&mask {
			t.move(t.slots, t.refs, j, i)
			i = j
		}
	}
	t.slots[i] = objSlot{}
	if t.refs != nil {
		t.refs[i] = nil
	}
	t.n--
	return old, true
}

// move copies slot from of the given arrays to slot to of the table's.
func (t *objTable) move(slots []objSlot, refs []any, from, to int) {
	t.slots[to] = slots[from]
	if refs != nil {
		t.refs[to] = refs[from]
	}
}

// reserve grows the table, once, so that it can hold n objects.
func (t *objTable) reserve(n int) {
	if n*8 > len(t.slots)*7 {
		t.rehash(max(minTableCap, 1<<bits.Len(uint((n*8-1)/7))))
	}
}

// rehash moves every object into fresh arrays of the given capacity, a
// power of two that holds them.
func (t *objTable) rehash(capacity int) {
	slots, refs := t.slots, t.refs
	t.slots = make([]objSlot, capacity)
	if refs != nil {
		t.refs = make([]any, capacity)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(capacity)))
	mask := capacity - 1
	for from := range slots {
		if slots[from].key == 0 {
			continue
		}
		to := t.home(slots[from].key - 1)
		for t.slots[to].key != 0 {
			to = (to + 1) & mask
		}
		t.move(slots, refs, from, to)
	}
}

// ids appends the ids of the objects in [first, last] — both ends
// included, so the whole id space is a range — to dst, ascending.
func (t *objTable) ids(dst []uint64, first, last uint64) []uint64 {
	mark := len(dst)
	for i := range t.slots {
		if k := t.slots[i].key; k != 0 && k-1 >= first && k-1 <= last {
			dst = append(dst, k-1)
		}
	}
	slices.Sort(dst[mark:])
	if t.hasTop && last == topID {
		dst = append(dst, topID)
	}
	return dst
}
