package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/sim"
)

var testMachine = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}

func TestNewTopology(t *testing.T) {
	f := New(40, 3, 5, testMachine)
	defer f.Close()
	if f.PK.NumShards() != 3 || len(f.Shards) != 3 || f.Net.NumShards() != 3 {
		t.Fatalf("shards: kernel %d, systems %d, partition %d, want 3 each",
			f.PK.NumShards(), len(f.Shards), f.Net.NumShards())
	}
	if want := sim.Time(core.DefaultConfig().Net.Latency.Nanoseconds()); f.PK.Lookahead() != want {
		t.Errorf("lookahead = %v, want the fabric latency %v", f.PK.Lookahead(), want)
	}
	for s, sys := range f.Shards {
		if sys.K != f.PK.Shard(s) {
			t.Errorf("shard %d does not run on PK.Shard(%d)", s, s)
		}
		if got := sys.Config().Seed; got != 40+int64(s) {
			t.Errorf("shard %d seed = %d, want %d", s, got, 40+s)
		}
		if n := len(sys.Cluster.Machines()); n != 5 {
			t.Errorf("shard %d has %d machines, want 5", s, n)
		}
		if f.Net.Fabric(s) != sys.Cluster.Fabric {
			t.Errorf("partition fabric %d is not shard %d's", s, s)
		}
	}
}

func TestPlaceStores(t *testing.T) {
	for _, first := range []int{0, 1} {
		f := New(1, 1, 4, testMachine)
		stores, err := PlaceStores(f.Shards[0], "s7-store-%d", 9, first, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, mp := range stores {
			if want := cluster.MachineID(first + i%(4-first)); mp.Location() != want {
				t.Errorf("first=%d: store %d on machine %d, want %d", first, i, mp.Location(), want)
			}
			name := f.Shards[0].Runtime.Lookup(mp.ID()).Name()
			if want := fmt.Sprintf("s7-store-%d", i); name != want {
				t.Errorf("first=%d: store %d named %q, want %q", first, i, name, want)
			}
		}
		f.Close()
	}
}

func TestPlaceStoresReplicatesAsPlaced(t *testing.T) {
	f := New(1, 1, 4, testMachine)
	defer f.Close()
	sys := f.Shards[0]
	sys.EnableReplicationPlane(replication.Config{}, 0)
	stores, err := PlaceStores(sys, "st-%d", 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Primary, its one backup, next primary: primaries hold every other ID.
	for i, mp := range stores {
		if want := stores[0].ID() + 2*proclet.ID(i); mp.ID() != want {
			t.Errorf("store %d has proclet ID %d, want %d", i, mp.ID(), want)
		}
	}
	if got := len(sys.Replication().Status()); got != 3 {
		t.Errorf("%d replica sets, want 3", got)
	}
}

func TestPlaceStoresNamesTheStoreThatFailed(t *testing.T) {
	f := New(1, 1, 3, testMachine)
	defer f.Close()
	f.Shards[0].EnableReplicationPlane(replication.Config{}, 0)
	// Three machines cannot hold four anti-affine replicas.
	_, err := PlaceStores(f.Shards[0], "st-%d", 2, 1, 4)
	if want := "fleet: replicate st-0: "; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %v does not start with %q", err, want)
	}
}

// crashRun drives two shards; shard 0 loses machine 1, which holds one
// of its two stores, from 1 ms to 2 ms while a writer keeps putting: 75
// writes scattered over 60 keys, then the next 60 keys, so the ledger is
// mid-stream — an unsorted tail with repeats, appended to while Rebuild's
// batch is on the wire — when the rebuild reads it.
// It returns the fleet (already run) and what Verify counted on shard 0.
func crashRun(t *testing.T, rebuild bool) (*Fleet, int64) {
	t.Helper()
	f := New(7, 2, 3, testMachine)
	val := func(k uint64) int64 { return int64(k)*3 + 1 }
	lost := int64(-1)
	for s, sys := range f.Shards {
		sys.Start()
		stores, err := PlaceStores(sys, fmt.Sprintf("s%d-store-%%d", s), 2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s != 0 {
			continue
		}
		led := NewLedger(stores, 512, val)
		if rebuild {
			sys.SetRebuilder(led.Rebuild)
		}
		in := fault.New(sys.K, sys.Cluster, sys.Trace)
		sys.AttachInjector(in)
		in.Install(fault.Schedule{
			{At: sim.Time(time.Millisecond), Op: fault.OpCrash, A: 1},
			{At: sim.Time(2 * time.Millisecond), Op: fault.OpRestart, A: 1},
		})
		sys.K.Spawn("writer", func(p *sim.Proc) {
			for i := uint64(0); p.Now() < sim.Time(3*time.Millisecond); i++ {
				k := i*31%60 + i/75*60
				if stores[k%2].PutInt(p, 0, k, val(k), 512) == nil {
					led.Ack(int(k%2), k)
				}
				p.Sleep(20 * time.Microsecond)
			}
			if len(led.Keys(0)) == 0 || len(led.Keys(1)) == 0 {
				t.Error("a store acked nothing")
			}
			lost = led.Verify(p, 1)
			if sampled := led.Verify(p, 1<<30); sampled > 2 {
				t.Errorf("Verify reading one key per store counted %d lost", sampled)
			}
		})
	}
	f.PK.RunUntil(sim.Time(10 * time.Millisecond))
	if lost < 0 {
		t.Fatal("the writer did not finish")
	}
	return f, lost
}

func TestLedgerRebuildLosesNothing(t *testing.T) {
	f, lost := crashRun(t, true)
	defer f.Close()
	if lost != 0 {
		t.Errorf("with the ledger as rebuilder Verify = %d, want 0", lost)
	}
}

func TestLedgerVerifyCountsWhatACrashDestroyed(t *testing.T) {
	f, lost := crashRun(t, false)
	defer f.Close()
	if lost <= 0 {
		t.Errorf("without a rebuilder Verify = %d, want > 0", lost)
	}
}

func TestLedgerKeysSortedAndDeduplicated(t *testing.T) {
	led := NewLedger(make([]*core.MemoryProclet, 2), 1, func(uint64) int64 { return 0 })
	led.Ack(1, 9, 3, 7)
	led.Ack(1, 3)
	led.Ack(1, 1<<40)
	if got, want := fmt.Sprint(led.Keys(1)), fmt.Sprint([]uint64{3, 7, 9, 1 << 40}); got != want {
		t.Errorf("Keys(1) = %s, want %s", got, want)
	}
	if got := led.Keys(0); len(got) != 0 {
		t.Errorf("Keys(0) = %v for a store that acked nothing", got)
	}
}

// TestLedgerStaysProportionalToDistinctKeys: acking the same thousand
// keys a hundred times over must not grow the record a hundredfold.
func TestLedgerStaysProportionalToDistinctKeys(t *testing.T) {
	const distinct = 1000
	led := NewLedger(make([]*core.MemoryProclet, 1), 1, func(uint64) int64 { return 0 })
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]bool)
	for i := 0; i < 100_000; i++ {
		k := uint64(rng.Intn(distinct)) * 7919
		seen[k] = true
		led.Ack(0, k)
		if c := cap(led.acked[0].keys); c > 4*distinct {
			t.Fatalf("after %d acks of %d distinct keys the record holds room for %d", i+1, len(seen), c)
		}
	}
	keys := led.Keys(0)
	if len(keys) != len(seen) || !slices.IsSorted(keys) || len(slices.Compact(slices.Clone(keys))) != len(keys) {
		t.Errorf("Keys returned %d keys (sorted=%v) for %d distinct acked", len(keys), slices.IsSorted(keys), len(seen))
	}
	for _, k := range keys {
		if !seen[k] {
			t.Errorf("Keys returned %d, never acked", k)
		}
	}
	// The caller owns what Keys returns — Rebuild has it on the wire while
	// servers keep acking — so a later compaction must not touch it.
	before := slices.Clone(keys)
	for k := uint64(0); k <= distinct; k++ {
		led.Ack(0, k)
	}
	if !slices.Equal(keys, before) {
		t.Error("acks after Keys changed the slice it had returned")
	}
}

// TestTraceMergesByTimeThenShard: both shards log spawns at 0 s (a
// tie), shard 0 then logs a crash, re-placement and a restart.
func TestTraceMergesByTimeThenShard(t *testing.T) {
	f, _ := crashRun(t, true)
	defer f.Close()
	got := f.Trace()

	type tagged struct {
		e     obs.Event
		shard int
	}
	var all []tagged
	logs := make([]*obs.Log, len(f.Shards))
	for s, sys := range f.Shards {
		logs[s] = sys.Trace
		for _, e := range sys.Trace.Events() {
			all = append(all, tagged{e, s})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].e.At != all[j].e.At {
			return all[i].e.At < all[j].e.At
		}
		return all[i].shard < all[j].shard
	})
	if len(got) != len(all) || len(got) == 0 {
		t.Fatalf("Trace has %d lines, the shards logged %d events", len(got), len(all))
	}
	crashes, ties := 0, 0
	for i, tg := range all {
		if got[i] != tg.e.String() {
			t.Fatalf("line %d = %q, want shard %d's %q", i, got[i], tg.shard, tg.e.String())
		}
		if tg.e.Kind == obs.KindCrash {
			crashes++
		}
		if i > 0 && all[i-1].e.At == tg.e.At && all[i-1].shard != tg.shard {
			ties++
		}
	}
	if crashes == 0 || ties == 0 {
		t.Errorf("the run logged %d crash events and %d cross-shard ties; the test needs both", crashes, ties)
	}
	// And it is the rendering the callers used to assemble by hand.
	merged, _ := obs.MergeLogs(logs...)
	for i, e := range merged.Events() {
		if got[i] != e.String() {
			t.Fatalf("line %d = %q, obs.MergeLogs renders %q", i, got[i], e.String())
		}
	}
}

func TestEventsPerShard(t *testing.T) {
	f, _ := crashRun(t, true)
	defer f.Close()
	ev := f.Events()
	if len(ev) != 2 || ev[0] != f.PK.Shard(0).EventsProcessed() || ev[1] != f.PK.Shard(1).EventsProcessed() || ev[0] <= ev[1] {
		t.Errorf("Events() = %v, want the two shard kernels' counts with the busy shard first", ev)
	}
}
