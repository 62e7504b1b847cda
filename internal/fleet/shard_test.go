package fleet

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// runShard serves one shard of three machines: two stores preloaded
// with objects of size bytes each, a tenant at rate req/s until horizon,
// and one server taking batches of batchMax. It runs the fleet to limit
// and returns the shard.
func runShard(t *testing.T, objects int, size int64, rate float64, batchMax int, horizon, limit sim.Time) *Shard {
	t.Helper()
	f := New(5, 1, 3, testMachine)
	t.Cleanup(f.Close)
	f.Shards[0].Start()
	sh, err := f.NewShard(0, 2, 1, size)
	if err != nil {
		t.Fatal(err)
	}
	sh.Tally = Tally{Hist: metrics.NewLogHistogram("lat"), Deadline: int64(time.Millisecond), Horizon: horizon}
	sh.Inj.AddTenant("t", load.Constant(rate), load.NewZipf(1000, 0.9))
	sh.Serve(Objects(objects, size), 1, batchMax, 0, nil)
	sh.Drain(nil)
	f.RunUntil(limit)
	return sh
}

func TestShardServesAndDrains(t *testing.T) {
	horizon := sim.Time(2 * time.Millisecond)
	sh := runShard(t, 32, 256, 200_000, 16, horizon, 3*horizon)
	if err := sh.Err(3 * horizon); err != nil {
		t.Fatal(err)
	}
	if sh.StartNS <= 0 || sim.Time(sh.StartNS) >= horizon {
		t.Errorf("injection began at %dns, want inside (0, %v)", sh.StartNS, horizon)
	}
	if gen := sh.Inj.TotalGenerated(); gen == 0 || sh.Served != gen || sh.Errors != 0 {
		t.Errorf("%d served, %d errors of %d generated; want every request served", sh.Served, sh.Errors, gen)
	}
	for i, mp := range sh.Stores {
		if want := fmt.Sprintf("s0-store-%d", i); sh.Sys.Runtime.Lookup(mp.ID()).Name() != want || mp.Location() != cluster.MachineID(1+i) {
			t.Errorf("store %d: %q on machine %d, want %q on machine %d", i, sh.Sys.Runtime.Lookup(mp.ID()).Name(), mp.Location(), want, 1+i)
		}
	}
}

// A preload that does not fit fails the shard with the store's error.
func TestShardPreloadFailure(t *testing.T) {
	sh := runShard(t, 80, 1<<20, 1000, 16, sim.Time(time.Millisecond), sim.Time(time.Second))
	err := sh.Err(sim.Time(time.Second))
	if !errors.Is(err, cluster.ErrNoMemory) || !strings.HasPrefix(err.Error(), "shard 0: preload of store 0 (80 objects of 1048576 bytes): ") {
		t.Errorf("err = %v, want shard 0's ErrNoMemory from the preload of store 0", err)
	}
}

// A preload still on the wire at the limit fails the shard: no request
// was ever generated, so there is nothing to report a rate over.
func TestShardPreloadThatNeverLanded(t *testing.T) {
	// 2 stores x 24 MB take about 4 ms at 100 Gb/s.
	limit := sim.Time(time.Millisecond)
	sh := runShard(t, 24, 1<<20, 1000, 16, limit, limit)
	err := sh.Err(limit)
	want := "shard 0: the preload of 2 stores (24 objects of 1048576 bytes each) was still on the wire at 1ms, so no request was ever generated"
	if !errors.Is(err, ErrPreloading) || err.Error() != want {
		t.Errorf("err = %v\nwant %s", err, want)
	}
	if sh.Inj.TotalGenerated() != 0 {
		t.Errorf("%d requests generated before the preload landed", sh.Inj.TotalGenerated())
	}
}

// Servers still working through their backlog at the limit fail the
// shard, with how far they got.
func TestShardServersThatDidNotDrain(t *testing.T) {
	// One server taking one request a call cannot keep up with 2M req/s.
	horizon := sim.Time(time.Millisecond)
	limit := horizon + sim.Time(100*time.Microsecond)
	sh := runShard(t, 32, 256, 2_000_000, 1, horizon, limit)
	err := sh.Err(limit)
	gen := sh.Inj.TotalGenerated()
	want := fmt.Sprintf("shard 0 did not drain by 1.1ms (%d served of %d generated)", sh.Served, gen)
	if !errors.Is(err, ErrUndrained) || err.Error() != want || sh.Served == 0 || sh.Served >= gen {
		t.Errorf("err = %v\nwant %s, with some but not all requests served", err, want)
	}
}

// A shard that does not serve drains once its own workers return, and
// only then runs its verify; a worker still running at the limit fails
// it.
func TestShardWorkersDrainBeforeVerify(t *testing.T) {
	for _, stuck := range []bool{false, true} {
		f := New(5, 1, 3, testMachine)
		f.Shards[0].Start()
		sh, err := f.NewShard(0, 2, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		var left, verified sim.Time
		sh.Go("worker", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			if stuck {
				p.Sleep(time.Hour)
			}
			left = p.Now()
		})
		sh.Drain(func(p *sim.Proc) { verified = p.Now() })
		f.RunUntil(sim.Time(10 * time.Millisecond))
		err = sh.Err(sim.Time(10 * time.Millisecond))
		switch {
		case stuck && (err == nil || err.Error() != "shard 0 did not drain by 10ms" || verified != 0):
			t.Errorf("stuck worker: err = %v, verify ran at %v; want the shard undrained and no verify", err, verified)
		case !stuck && (err != nil || verified != left || left != sim.Time(time.Millisecond)):
			t.Errorf("err = %v, worker left at %v, verify ran at %v; want verify as the worker left", err, left, verified)
		}
		f.Close()
	}
}

// shardCost is what one shard's whole life allocated.
type shardCost struct {
	allocs, bytes float64
	workers       uint64 // coroutines its kernel created
}

// serveCost builds a one-shard fleet of three machines with stores
// stores, preloads objects objects of 64 bytes, serves 1M req/s with a
// tenth of them writes through servers servers taking batches of 16 for
// a millisecond, drains and verifies every key, and returns what all of
// that allocated: the fewest of three tries, at GOMAXPROCS 1.
func serveCost(t *testing.T, stores, servers, objects int) shardCost {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := shardCost{allocs: math.Inf(1), bytes: math.Inf(1)}
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f := New(5, 1, 3, testMachine)
		f.Shards[0].Start()
		sh, err := f.NewShard(0, stores, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		horizon := sim.Time(time.Millisecond)
		sh.Tally = Tally{Hist: metrics.NewLogHistogram("lat"), Deadline: int64(time.Millisecond), Horizon: horizon}
		sh.Inj.AddTenant("t", load.Constant(1_000_000), load.NewZipf(1000, 0.9))
		sh.Serve(Objects(objects, 64), servers, 16, 0.1, nil)
		lost := int64(-1)
		sh.Drain(func(p *sim.Proc) { lost = sh.Ledger.Verify(p, 1) })
		f.RunUntil(10 * horizon)
		if err := sh.Err(10 * horizon); err != nil || lost != 0 || sh.Acked == 0 {
			t.Fatalf("%d stores, %d servers, %d objects: %v, %d lost, %d writes acked", stores, servers, objects, err, lost, sh.Acked)
		}
		workers := sh.Sys.K.WorkersCreated()
		f.Close()
		runtime.ReadMemStats(&after)
		best.allocs = min(best.allocs, float64(after.Mallocs-before.Mallocs))
		best.bytes = min(best.bytes, float64(after.TotalAlloc-before.TotalAlloc))
		best.workers = workers
	}
	return best
}

// preloadBytes is what two bare stores allocate to take a preload of
// objects objects of 64 bytes: first is the system's first store, which
// takes it while the memory proclets' shared scratch is empty; table is
// the store beside it, which takes it once the scratch has grown, so it
// pays for its object table alone.
func preloadBytes(t *testing.T, objects int) (first, table float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f := New(5, 1, 2, testMachine)
	defer f.Close()
	sys := f.Shards[0]
	sys.Start()
	stores, err := PlaceStores(sys, "st-%d", 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	objs := Objects(objects, 64)
	var start, mid, end runtime.MemStats
	sys.K.Spawn("preload", func(p *sim.Proc) {
		runtime.ReadMemStats(&start)
		err := stores[0].PutBatch(p, 0, objs)
		runtime.ReadMemStats(&mid)
		if err = errors.Join(err, stores[1].PutBatch(p, 0, objs)); err != nil {
			t.Error(err)
		}
		runtime.ReadMemStats(&end)
	})
	f.RunUntil(sim.Time(time.Second))
	return float64(mid.TotalAlloc - start.TotalAlloc), float64(end.TotalAlloc - mid.TotalAlloc)
}

// TestShardServeAllocs holds a serving shard's cost to its shape:
//
//   - Twice the stores costs nothing per store that grows with the
//     objects beyond each store's own object table: the preload is kept
//     once for the whole ledger, and Verify walks the records in place.
//   - Twice the servers costs at most a fixed few allocations a server
//     (norace_test.go and race_test.go count them): a server's buffers
//     are sized to a batch when it is built, not grown by its batches.
//   - A server is a staged process, so no server creates a worker.
func TestShardServeAllocs(t *testing.T) {
	const stores, servers, objects = 4, 2, 256
	base := serveCost(t, stores, servers, objects)

	// Bytes a store and an object cost, over the object table's own.
	perStore := func(objects int) float64 {
		return serveCost(t, 2*stores, servers, objects).bytes - serveCost(t, stores, servers, objects).bytes
	}
	slope := (perStore(4*objects) - perStore(objects)) / (stores * 3 * objects)
	first4, table4 := preloadBytes(t, 4*objects)
	first1, table1 := preloadBytes(t, objects)
	table, first := (table4-table1)/(3*objects), (first4-first1)/(3*objects)
	t.Logf("a store costs %.1f bytes an object, its object table %.1f, the system's first store's preload %.1f", slope, table, first)
	if slope > table+storeObjectSlack {
		t.Errorf("each store costs %.1f bytes an object, %.1f over its object table's %.1f: want at most %d, none of it a copy of the preload",
			slope, slope-table, table, storeObjectSlack)
	}
	if first > table+storeObjectSlack {
		t.Errorf("a bare system's first preload costs %.1f bytes an object, %.1f over its object table's %.1f: want at most %d, the shared scratch sized once to the batch",
			first, first-table, table, storeObjectSlack)
	}

	more := serveCost(t, stores, 2*servers, objects)
	per := (more.allocs - base.allocs) / servers
	t.Logf("a server costs %.1f allocations", per)
	if per > perServerAllocs {
		t.Errorf("%d more servers cost %.0f allocations, %.1f a server: want at most %d", servers, more.allocs-base.allocs, per, perServerAllocs)
	}
	if more.workers != base.workers {
		t.Errorf("%d servers created %d workers, %d servers %d: a staged server creates none", 2*servers, more.workers, servers, base.workers)
	}
}
