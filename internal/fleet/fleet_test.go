package fleet

import (
	"errors"
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
	"repro/internal/simnet"
)

var testMachine = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}

func TestNewTopology(t *testing.T) {
	f := New(40, 3, 5, testMachine)
	defer f.Close()
	if f.PK.NumShards() != 3 || len(f.Shards) != 3 {
		t.Fatalf("shards: kernel %d, systems %d, want 3 each", f.PK.NumShards(), len(f.Shards))
	}
	if want := sim.Time(simnet.DefaultConfig().Latency.Nanoseconds()); f.PK.Lookahead() != want {
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
		sys.Cluster.Fabric.Node(0).HandleFast("whoami", func(simnet.Message) (simnet.Message, error) {
			return simnet.Message{Word: uint64(s)}, nil
		})
	}
	// The partition reaches each shard through that shard's own fabric.
	net := f.Partition()
	f.PK.Shard(0).Spawn("probe", func(p *sim.Proc) {
		for s := range f.Shards {
			rep, err := net.Call(p, simnet.ShardNode{Shard: 0}, simnet.ShardNode{Shard: s}, "whoami", simnet.Message{})
			if err != nil || rep.Word != uint64(s) {
				t.Errorf("call to shard %d: reply %d, err %v; the partition's fabric is not the shard's", s, rep.Word, err)
			}
		}
	})
	f.RunUntil(sim.Time(time.Millisecond))
	// A fleet with a partition keeps its window barrier, and its
	// partition stays readable after the run.
	if f.PK.Windows() == 0 || f.Partition() != net || net.CrossCalls.Value() != 2 {
		t.Errorf("windows %d, cross calls %d: a partitioned fleet must run windowed", f.PK.Windows(), net.CrossCalls.Value())
	}
}

// A fleet that never built a partition runs isolated: no windows, and a
// partition built after the fact would be a channel the shards never had.
func TestPartitionAfterFirstRunPanics(t *testing.T) {
	f := New(3, 2, 2, testMachine)
	defer f.Close()
	ticks := make([]int, len(f.Shards))
	for s := range f.Shards {
		f.PK.Shard(s).Every(0, 5*time.Microsecond, func() bool { ticks[s]++; return true })
	}
	f.RunUntil(sim.Time(time.Millisecond))
	if w := f.PK.Windows(); w != 0 || ticks[0] != 201 || ticks[1] != 201 {
		t.Fatalf("isolated fleet: %d windows, ticks %v; want 0 and 201 a shard", w, ticks)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Partition after the first RunUntil") {
			t.Fatalf("late Partition: recovered %q, want a panic naming the call", msg)
		}
	}()
	f.Partition()
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
	// Primary, its one backup, next primary: primaries hold every other ID,
	// and each backup sits off its primary's machine.
	for i, mp := range stores {
		if want := stores[0].ID() + 2*proclet.ID(i); mp.ID() != want {
			t.Errorf("store %d has proclet ID %d, want %d", i, mp.ID(), want)
		}
		if b := sys.Runtime.Lookup(mp.ID() + 1); b == nil || b.Location() == mp.Location() {
			t.Errorf("store %d has no backup off its machine %d", i, mp.Location())
		}
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
		led := NewLedger(stores, 512)
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
				led.Put(p, 0, int(k%2), k)
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
	f.RunUntil(sim.Time(10 * time.Millisecond))
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

// TestLedgerVerifyReadsInChunks: Verify reads the sampled keys (every
// every-th) in GetBatch calls of up to 64. Two ledgers of one store
// each are preloaded with n keys. The first store then holds a wrong
// value under its last sampled key, so exactly that key is lost. The
// second store is destroyed, so each of its calls fails and every key
// it was asked for counts.
func TestLedgerVerifyReadsInChunks(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129} {
		for _, every := range []int{1, 3, 1 << 30} {
			sampled := (n-1)/every + 1
			chunks := (sampled + verifyChunk - 1) / verifyChunk
			f := New(5, 1, 3, testMachine)
			sys := f.Shards[0]
			tr := sys.EnableTracing()
			sys.Start()
			stores, err := PlaceStores(sys, "st-%d", 2, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			good, failed := NewLedger(stores[:1], 64), NewLedger(stores[1:], 64)
			calls := func() (c int) {
				for _, sp := range tr.SpansByID() {
					if sp.Kind == obs.KindInvoke && sp.Name == "mem.getbatch" {
						c++
					}
				}
				return c
			}
			ran := false
			sys.K.Spawn("verify", func(p *sim.Proc) {
				objs := Objects(n, 64)
				bad := uint64((sampled - 1) * every)
				if err := errors.Join(good.Preload(p, objs), failed.Preload(p, objs),
					stores[0].PutInt(p, 0, bad, val(bad)+1, 64), stores[1].Destroy()); err != nil {
					t.Error(err)
					return
				}
				before := calls()
				if lost := good.Verify(p, every); lost != 1 {
					t.Errorf("n=%d every=%d: a wrong value under key %d counted %d lost, want 1", n, every, bad, lost)
				}
				if got := calls() - before; got != chunks {
					t.Errorf("n=%d every=%d: %d GetBatch calls for %d sampled keys, want %d", n, every, got, sampled, chunks)
				}
				before = calls()
				if lost := failed.Verify(p, every); lost != int64(sampled) {
					t.Errorf("n=%d every=%d: a store whose calls fail counted %d lost, want all %d sampled", n, every, lost, sampled)
				}
				if got := calls() - before; got != chunks {
					t.Errorf("n=%d every=%d: %d failed GetBatch calls, want %d", n, every, got, chunks)
				}
				ran = true
			})
			f.RunUntil(sim.Time(time.Second))
			f.Close()
			if !ran {
				t.Fatalf("n=%d every=%d: the verifier did not finish", n, every)
			}
		}
	}
}

func TestLedgerKeysSortedAndDeduplicated(t *testing.T) {
	led := NewLedger(make([]*core.MemoryProclet, 2), 1)
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
// keys a hundred times over must not grow the record a hundredfold. With
// a preload the bound is the same: the preload is held once, in the
// batch it came in, and a store's own record counts only its acks.
func TestLedgerStaysProportionalToDistinctKeys(t *testing.T) {
	const distinct = 1000
	led := NewLedger(make([]*core.MemoryProclet, 1), 1)
	ledgerStaysProportional(t, led, distinct)

	f := New(3, 1, 2, testMachine)
	defer f.Close()
	sys := f.Shards[0]
	sys.Start()
	stores, err := PlaceStores(sys, "st-%d", 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	objs := Objects(8*distinct, 1)
	led = NewLedger(stores, 1)
	sys.K.Spawn("preload", func(p *sim.Proc) {
		if err := led.Preload(p, objs); err != nil {
			t.Error(err)
		}
	})
	f.RunUntil(sim.Time(time.Second))
	for i := range stores {
		if c := cap(led.acked[i].keys); c > 4*distinct {
			t.Errorf("store %d: a preload of %d keys took room for %d in the store's own record", i, len(objs.IDs), c)
		}
	}
	ledgerStaysProportional(t, led, distinct)
	if len(led.base) == 0 || &led.base[0] != &objs.IDs[0] {
		t.Error("the ledger does not hold the preload in the batch it came in")
	}
}

// ledgerStaysProportional acks a hundred thousand draws of distinct keys
// into store 0, holding the record's room to four times them, and checks
// Keys against what was acked, led's preload included.
func ledgerStaysProportional(t *testing.T, led *Ledger, distinct int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]bool)
	for _, k := range led.base {
		seen[k] = true
	}
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
	for k := uint64(0); k <= uint64(distinct); k++ {
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
	got := f.Trace().Lines()

	type tagged struct {
		e     obs.Event
		shard int
	}
	var all []tagged
	logs := make([]*obs.Log, len(f.Shards))
	for s, sys := range f.Shards {
		logs[s] = sys.Trace
		sys.Trace.Each(func(e *obs.Event) { all = append(all, tagged{*e, s}) })
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
	for i, line := range merged.Lines() {
		if got[i] != line {
			t.Fatalf("line %d = %q, obs.MergeLogs renders %q", i, got[i], line)
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
