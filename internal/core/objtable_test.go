package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// objID keys the Go maps the tests hold a table's contents in.
type objID = uint64

// all returns the table's contents as a map.
func (t *objTable) all() map[objID]objEntry {
	m := make(map[objID]objEntry, t.len())
	for _, id := range t.ids(nil, 0, topID) {
		m[id], _ = t.get(id)
	}
	return m
}

// idPool returns the ids one tape draws from. Every pool holds both ends
// of the id space; the rest is dense, sparse (uniform over 64 bits, the
// way hashed keys are) or colliding (every id starts its probe sequence
// in the same slot of a 64-slot table, so the pool is one long cluster
// that wraps).
func idPool(rng *rand.Rand, kind int) []uint64 {
	pool := []uint64{0, topID, topID - 1}
	for len(pool) < 96 {
		switch kind {
		case 0:
			pool = append(pool, uint64(len(pool)))
		case 1:
			pool = append(pool, rng.Uint64())
		default:
			if id := rng.Uint64(); id*0x9E3779B97F4A7C15>>58 == 63 {
				pool = append(pool, id)
			}
		}
	}
	return pool
}

// Property: through arbitrary puts, deletes, reserves and range walks
// over dense, sparse and colliding ids, holding scalars and references,
// the table behaves as a Go map does. After every step: len and every
// pool id's membership and value match the model; put and del returned
// what the model held; ids over a random range and over the whole space
// is the model's keys ascending; the table is at most 7/8 full; an
// overwrite never regrows it, nor does anything after a reserve(n) until
// more than n objects are stored; the reference array does not exist
// until a reference has been stored; and an empty slot pins no value.
//
// Hand mutations this fails on (each tried): del without the backward
// shift (a later get misses a live id); the shift test reading > for >=,
// or comparing without the mask (an entry pulled in front of its home);
// del not clearing the vacated slot, or its reference; put not counting a
// new id; find starting at home+1; rehash copying slots but not refs; the
// first-reference fill leaving earlier scalars with a nil ref; put
// writing refs only for references (a scalar over a reference stays a
// reference); entry ignoring refs; ids forgetting topID, not sorting, or
// taking last as an exclusive bound; len ignoring topID, del leaving it
// present; reserve rounding down; put growing before it knows the id is
// new.
func TestObjTableAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := idPool(rng, int(seed%3))
		scalarsOnly := seed%4 == 0
		var tab objTable
		model := make(map[objID]objEntry)
		reserved, slotsAtReserve := -1, 0 // reserved < 0: no reserve outstanding
		storedRef := false
		var scratch []uint64
		var op string
		step := 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
		}
		for step = 0; step < 10_000; step++ {
			id := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(100); {
			case r < 55:
				e := objEntry{val: Int(rng.Int63() - 1<<62), bytes: int64(rng.Intn(4096))}
				if !scalarsOnly && rng.Intn(3) == 0 {
					e.val = refTo(fmt.Sprint("v", step))
					if rng.Intn(8) == 0 {
						e.val = refTo(nil)
					}
					storedRef = true
				}
				op = fmt.Sprintf("put %d", id)
				slots := len(tab.slots)
				old, existed := tab.put(id, e)
				if want, ok := model[id]; existed != ok || old != want {
					fail("displaced %v (existed=%v), model held %v (present=%v)", old, existed, want, ok)
				}
				if existed && len(tab.slots) != slots {
					fail("an overwrite regrew the table from %d to %d slots", slots, len(tab.slots))
				}
				model[id] = e
			case r < 90:
				op = fmt.Sprintf("del %d", id)
				old, existed := tab.del(id)
				if want, ok := model[id]; existed != ok || old != want {
					fail("removed %v (existed=%v), model held %v (present=%v)", old, existed, want, ok)
				}
				delete(model, id)
			case seed%5 == 0:
				// A tape that never reserves keeps the table at its smallest,
				// where puts meet the 7/8 bound.
				op = "idle"
			default:
				reserved = rng.Intn(200)
				op = fmt.Sprintf("reserve %d", reserved)
				tab.reserve(reserved)
				slotsAtReserve = len(tab.slots)
			}

			if tab.len() != len(model) {
				fail("len %d, model %d", tab.len(), len(model))
			}
			for _, id := range pool {
				got, ok := tab.get(id)
				if want, present := model[id]; ok != present || got != want {
					fail("get(%d) = %v, %v; model %v, %v", id, got, ok, want, present)
				}
			}
			if tab.n*8 > len(tab.slots)*7 {
				fail("%d objects in %d slots", tab.n, len(tab.slots))
			}
			if len(model) > reserved {
				reserved = -1 // the promise is spent
			} else if len(tab.slots) != slotsAtReserve {
				fail("regrew to %d slots holding %d, after reserve(%d) left %d", len(tab.slots), len(model), reserved, slotsAtReserve)
			}
			if (tab.refs != nil) != storedRef {
				fail("reference array present=%v, a reference was stored=%v", tab.refs != nil, storedRef)
			}
			for i, ref := range tab.refs {
				if _, scalar := ref.(inlineInt); tab.slots[i].key == 0 && ref != nil && !scalar {
					fail("empty slot %d still refers to %v", i, ref)
				}
			}

			first, last := uint64(0), topID
			if rng.Intn(2) == 0 {
				first, last = pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			}
			var want []uint64
			for id := range model {
				if id >= first && id <= last {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			scratch = tab.ids(append(scratch[:0], 7), first, last)
			if scratch[0] != 7 || !slices.Equal(scratch[1:], want) {
				fail("ids[%d, %d] = %v, model %v", first, last, scratch, want)
			}
		}
	}
}

func TestValueRoundTrips(t *testing.T) {
	for _, n := range []int64{0, -1, 1 << 62, -1 << 63} {
		v := Int(n)
		if got, ok := v.Int(); !ok || got != n {
			t.Errorf("Int(%d).Int() = %d, %v", n, got, ok)
		}
		if got, ok := v.Any().(int64); !ok || got != n {
			t.Errorf("Int(%d).Any() = %v", n, v.Any())
		}
	}
	for _, x := range []any{nil, "s", int64(3), 3, struct{}{}} {
		v := refTo(x)
		if _, ok := v.Int(); ok {
			t.Errorf("refTo(%v).Int() reports a scalar", x)
		}
		if v.Any() != x {
			t.Errorf("refTo(%v).Any() = %v", x, v.Any())
		}
	}
	if (Value{}) != refTo(nil) {
		t.Error("the zero Value is not refTo(nil)")
	}
	if Int(0) == refTo(nil) || Int(3) == refTo(int64(3)) {
		t.Error("a scalar equals a reference")
	}
}
