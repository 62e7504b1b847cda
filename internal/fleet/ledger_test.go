package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// copyLedger is the ledger's record as it was kept before the preload
// was shared: every store's own sorted-prefix-plus-tail list, the preload
// copied into each, and each read-back walking a clone of it.
type copyLedger struct{ acked []ackedKeys }

func (c *copyLedger) ack(store int, keys ...uint64) {
	a := &c.acked[store]
	a.keys = append(a.keys, keys...)
	if len(a.keys) > 2*a.sorted {
		a.compact()
	}
}

func (c *copyLedger) keys(store int) []uint64 {
	a := &c.acked[store]
	if len(a.keys) > a.sorted {
		a.compact()
	}
	return slices.Clone(a.keys)
}

// chunks is Verify's read-back as it was: every every-th key of a clone
// of each store's record, packed to its front, read verifyChunk at a
// time.
func (c *copyLedger) chunks(every int, read func(store int, chunk []uint64)) {
	for i := range c.acked {
		keys := c.keys(i)
		n := 0
		for j := 0; j < len(keys); j += every {
			keys[n] = keys[j]
			n++
		}
		keys = keys[:n]
		for len(keys) > 0 {
			chunk := keys[:min(verifyChunk, len(keys))]
			keys = keys[len(chunk):]
			read(i, chunk)
		}
	}
}

// TestLedgerWalkMatchesCopies: a ledger whose stores share one preload
// and keep only their own acks reads back exactly what a ledger that
// copies the preload into every store did. Random tapes ack batches of
// keys — repeats, keys of the preload, keys past it — into four stores,
// and between the acks read the record back: Keys of each store, and the
// sequence of GetBatch chunks Verify would issue at every ∈ {1, 2, 3, 7},
// must equal the copying ledger's. Some read-backs ack more keys while a
// chunk is in flight, as a server's write could while Verify's GetBatch
// waits; like the copy Verify walked, the walk in hand must not see them.
func TestLedgerWalkMatchesCopies(t *testing.T) {
	const stores = 4
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		objs := Objects(n, 8)
		led := NewLedger(make([]*core.MemoryProclet, stores), 8)
		led.base = objs.IDs
		ref := &copyLedger{acked: make([]ackedKeys, stores)}
		for i := range ref.acked {
			ref.ack(i, objs.IDs...)
		}
		draw := func() []uint64 {
			keys := make([]uint64, 1+rng.Intn(40))
			for j := range keys {
				keys[j] = uint64(rng.Intn(2*n + 50))
			}
			return keys
		}
		for step := 0; step < 200; step++ {
			if rng.Intn(4) > 0 {
				st, keys := rng.Intn(stores), draw()
				led.Ack(st, keys...)
				ref.ack(st, keys...)
				continue
			}
			for i := 0; i < stores; i++ {
				if got, want := led.Keys(i), ref.keys(i); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Keys(%d) = %d keys, want the copying ledger's %d\ngot  %v\nwant %v", seed, step, i, len(got), len(want), got, want)
				}
			}
			every := []int{1, 2, 3, 7}[rng.Intn(4)]
			meddle := rng.Intn(2) == 0
			// An ack mid-walk goes to the store being walked, so the copying
			// ledger, whose walk of that store is a clone, takes it after.
			var got, want []string
			var late [][]uint64
			led.chunks(every, func(st int, chunk []uint64) {
				got = append(got, fmt.Sprint(st, chunk))
				if meddle {
					keys := draw()
					led.Ack(st, keys...)
					late = append(late, append([]uint64{uint64(st)}, keys...))
				}
			})
			ref.chunks(every, func(st int, chunk []uint64) { want = append(want, fmt.Sprint(st, chunk)) })
			for _, a := range late {
				ref.ack(int(a[0]), a[1:]...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d every %d (acks mid-walk %v): the read-back's chunks differ from the copying ledger's\ngot  %v\nwant %v", seed, step, every, meddle, got, want)
			}
		}
	}
}

// TestLedgerVerifyRejectsEveryBelowOne: every 0 would walk no further
// than the first key forever and a negative every would index before
// it; Verify refuses both up front, naming the value.
func TestLedgerVerifyRejectsEveryBelowOne(t *testing.T) {
	for _, every := range []int{0, -2} {
		led := NewLedger(make([]*core.MemoryProclet, 1), 8)
		led.Ack(0, 1, 2, 3)
		got := func() (r any) {
			defer func() { r = recover() }()
			led.Verify(nil, every)
			return nil
		}()
		want := fmt.Sprintf("Ledger.Verify with every %d", every)
		if s, _ := got.(string); !strings.Contains(s, want) {
			t.Errorf("every %d: Verify panicked with %v, want a panic naming %q", every, got, want)
		}
	}
}

// TestLedgerPreloadRejectsUnsortedKeys: the shared preload is walked as
// a sorted list, so Preload refuses keys out of order or repeated, and a
// second preload, naming what it found.
func TestLedgerPreloadRejectsUnsortedKeys(t *testing.T) {
	for _, c := range []struct {
		ids  []uint64
		want string
	}{
		{[]uint64{0, 2, 1}, "key 1 at index 2 follows 2"},
		{[]uint64{4, 4}, "key 4 at index 1 follows 4"},
	} {
		led := NewLedger(nil, 8)
		got := func() (r any) {
			defer func() { r = recover() }()
			led.Preload(nil, &core.Batch{IDs: c.ids})
			return nil
		}()
		if s, _ := got.(string); !strings.Contains(s, c.want) {
			t.Errorf("Preload of %v panicked with %v, want a panic naming %q", c.ids, got, c.want)
		}
	}
	led := NewLedger(nil, 8)
	if err := led.Preload(nil, Objects(3, 8)); err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		led.Preload(nil, Objects(3, 8))
		return nil
	}()
	if s, _ := got.(string); !strings.Contains(s, "already preloaded with 3") {
		t.Errorf("a second Preload panicked with %v, want a panic naming the first", got)
	}
}
