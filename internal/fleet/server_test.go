package fleet

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestServerCountsKeysAReadDidNotReturn pins the server's read rule on an
// rf-1 store that crashes and is re-placed empty, with no rebuilder. A
// batch of four reads and two writes is served before the crash and
// another after it. Afterwards the reads succeed on an empty store, and
// each key they do not return is an error; the writes ack and join the
// ledger. The shard traces, so every request must land as a child of its
// batch's root, beside the store calls.
func TestServerCountsKeysAReadDidNotReturn(t *testing.T) {
	const objects = 16
	f := New(3, 1, 3, testMachine)
	defer f.Close()
	sys := f.Shards[0]
	tr := sys.EnableTracing()
	sys.Start()
	stores, err := PlaceStores(sys, "store-%d", 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger(stores, 256)
	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	sys.AttachInjector(in)
	in.Install(fault.Schedule{
		{At: sim.Time(2 * time.Millisecond), Op: fault.OpCrash, A: 1},
		{At: sim.Time(3 * time.Millisecond), Op: fault.OpRestart, A: 1},
	})
	sys.K.Spawn("setup", func(p *sim.Proc) {
		if err := led.Preload(p, Objects(objects, 256)); err != nil {
			t.Error(err)
		}
	})

	horizon := sim.Time(10 * time.Millisecond)
	sh := &Shard{Tally: Tally{Hist: metrics.NewLogHistogram("lat"), Deadline: int64(time.Second), Horizon: horizon}, Sys: sys, Ledger: led}
	tally := &sh.Tally
	var q load.Queue
	// Half the keys are writes (key % 1000 < 500); the reads address
	// objects key % 16, all preloaded.
	var writes []uint64
	for b, at := range []sim.Time{sim.Time(time.Millisecond), sim.Time(6 * time.Millisecond)} {
		for i := uint64(0); i < 6; i++ {
			key := (uint64(b)*6+i)*1000 + 700
			if i >= 4 {
				key -= 500
				writes = append(writes, load.ScrambleKey(key))
			}
			sys.K.Schedule(at, func() { q.Push(load.Request{At: at, Key: key}) })
		}
	}
	q.Serve(sys.K, nil, horizon, 20*time.Microsecond, 8, NewServer(sh, objects, 8, 0.5), nil)
	f.RunUntil(horizon + sim.Time(time.Millisecond))

	if loc := stores[0].Location(); loc == 1 {
		t.Fatal("the store was not re-placed off the crashed machine")
	}
	if tally.Served != 12 || tally.Timeouts != 0 {
		t.Fatalf("served %d (%d timeouts), want all 12 on time", tally.Served, tally.Timeouts)
	}
	if tally.Errors != 4 {
		t.Errorf("%d errors, want 4: one per key the empty store's reads did not return", tally.Errors)
	}
	if tally.Acked != 4 {
		t.Errorf("%d acked writes, want 4", tally.Acked)
	}
	keys := led.Keys(0)
	for _, k := range writes {
		if _, ok := slices.BinarySearch(keys, k); !ok {
			t.Errorf("acked write of object %d is not in the ledger", k)
		}
	}

	roots := map[obs.SpanID]int{} // batch root -> its store-call children
	reqs := 0
	spans := tr.SpansByID()
	for _, sp := range spans {
		if sp.Kind == obs.KindReq && sp.Name == "batch" {
			roots[sp.ID] = 0
		}
	}
	for _, sp := range spans {
		if _, ok := roots[sp.Parent]; !ok {
			continue
		}
		if sp.Name == "req" {
			reqs++
		} else {
			roots[sp.Parent]++
		}
	}
	if len(roots) != 2 || reqs != 12 {
		t.Errorf("%d batch roots with %d request children, want 2 and 12", len(roots), reqs)
	}
	for id, calls := range roots {
		if calls != 2 {
			t.Errorf("batch %d has %d store calls hanging off it, want 2: a read and a write", id, calls)
		}
	}
}

// countingSortPlan is the plan the server made before its plan cost only
// a batch's keys and calls: a stable counting sort over every call — count
// call c's keys in off[c+1], sum the counts into starts, place each key in
// batch order at its call's cursor, shift the cursors back to starts —
// and a walk of all 2×stores calls, skipping the empty ones. It is the
// reference TestServerPlanMatchesCountingSort holds the server to.
func countingSortPlan(batch []load.Request, stores int, objects, cut uint64) []plannedCall {
	callOf := func(key uint64) int {
		c := 2 * int(key%uint64(stores))
		if key%1000 < cut {
			c++
		}
		return c
	}
	off := make([]int, 2*stores+1)
	for _, r := range batch {
		off[callOf(r.Key)+1]++
	}
	for c := 1; c < len(off); c++ {
		off[c] += off[c-1]
	}
	keys := make([]uint64, len(batch))
	for _, r := range batch {
		c := callOf(r.Key)
		k := r.Key % objects
		if c%2 == 1 {
			k = load.ScrambleKey(r.Key)
		}
		keys[off[c]] = k
		off[c]++
	}
	copy(off[1:], off)
	off[0] = 0
	var calls []plannedCall
	for c := 0; c < 2*stores; c++ {
		if off[c] < off[c+1] {
			calls = append(calls, plannedCall{store: c / 2, write: c%2 == 1, ids: keys[off[c]:off[c+1]]})
		}
	}
	return calls
}

// plannedCall is one store call of a batch's plan.
type plannedCall struct {
	store int
	write bool
	ids   []uint64
}

// TestServerPlanMatchesCountingSort: the server's plan makes the same
// calls as the counting sort it replaced — the same stores, reads and
// writes, in the same order, with the same ids in the same order — and
// settling them leaves the same tallies and the same ledger. Random
// batches of 1 to batchMax keys, repeats among them, go through one
// server a store count, at all-read, all-write and mixed write fractions;
// each call gets a drawn outcome (failed, or a read returning a drawn
// share of its keys), the same for both plans.
func TestServerPlanMatchesCountingSort(t *testing.T) {
	const batchMax, batches = 32, 400
	rng := rand.New(rand.NewSource(1))
	for _, stores := range []int{1, 2, 3, 16, 70} {
		for _, frac := range []float64{0, 1, 0.05, 0.5} {
			objects := uint64(1 + rng.Intn(300))
			newShard := func() *Shard {
				return &Shard{Ledger: NewLedger(make([]*core.MemoryProclet, stores), 64)}
			}
			sh, ref := newShard(), newShard()
			srv := NewServer(sh, int(objects), batchMax, frac)
			pool := make([]uint64, 1+rng.Intn(8)) // repeats come from here
			for i := range pool {
				pool[i] = rng.Uint64()
			}
			for b := 0; b < batches; b++ {
				batch := make([]load.Request, 1+rng.Intn(batchMax))
				for i := range batch {
					batch[i].Key = rng.Uint64()
					if rng.Intn(3) == 0 {
						batch[i].Key = pool[rng.Intn(len(pool))]
					}
				}
				want := countingSortPlan(batch, stores, objects, srv.cut)
				srv.plan(batch)
				j := 0
				for ; srv.next(); j++ {
					got := plannedCall{store: srv.op / 2, write: srv.op%2 == 1, ids: srv.ids()}
					if j >= len(want) {
						t.Fatalf("%d stores, write fraction %v, batch %d: call %d %+v past the reference's %d calls", stores, frac, b, j, got, len(want))
					}
					if w := want[j]; got.store != w.store || got.write != w.write || !slices.Equal(got.ids, w.ids) {
						t.Fatalf("%d stores, write fraction %v, batch %d: call %d is %+v, the counting sort's %+v", stores, frac, b, j, got, w)
					}
					var err error
					returned := 0
					switch rng.Intn(4) {
					case 0:
						err = errDeadline
					default:
						returned = rng.Intn(len(got.ids) + 1)
					}
					srv.rbuf.IDs = srv.rbuf.IDs[:returned]
					srv.settle(err)
					rt := &ref.Tally
					switch {
					case err != nil:
						rt.Errors += uint64(len(want[j].ids))
					case !want[j].write:
						rt.Errors += uint64(len(want[j].ids) - returned)
					default:
						ref.Ledger.Ack(want[j].store, want[j].ids...)
						rt.Acked += uint64(len(want[j].ids))
					}
				}
				if j != len(want) {
					t.Fatalf("%d stores, write fraction %v, batch %d: %d calls, the counting sort's %d", stores, frac, b, j, len(want))
				}
			}
			if sh.Errors != ref.Errors || sh.Acked != ref.Acked {
				t.Errorf("%d stores, write fraction %v: %d errors and %d acked, the counting sort's %d and %d", stores, frac, sh.Errors, sh.Acked, ref.Errors, ref.Acked)
			}
			for i := 0; i < stores; i++ {
				if got, want := sh.Ledger.Keys(i), ref.Ledger.Keys(i); !slices.Equal(got, want) {
					t.Errorf("%d stores, write fraction %v: store %d's ledger holds %d keys, the counting sort's %d", stores, frac, i, len(got), len(want))
				}
			}
		}
	}
}
