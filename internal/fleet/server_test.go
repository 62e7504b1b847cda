package fleet

import (
	"slices"
	"testing"
	"time"

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
