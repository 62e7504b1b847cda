package quicksand

// One seed produces exactly one behaviour. The golden table
// (internal/experiments TestExperimentDeterminism and TestExtGoldens)
// holds that for every experiment at base seeds 0-2 and -par 1 and 4;
// the tests here vary what the table holds fixed — the host's
// GOMAXPROCS, other -par values, a seed outside the table — and hold
// what a behaviour of the replication stack must be at every seed.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/replication"
	"repro/internal/sim"
)

func runExperiment(t *testing.T, id string) *experiments.Result {
	t.Helper()
	res, err := experiments.Run(id, experiments.TestScale)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if n := len(res.TraceLines()); res.EventsProcessed == 0 || n == 0 {
		t.Fatalf("%s: %d kernel events, %d trace events: want both non-zero", id, res.EventsProcessed, n)
	}
	return res
}

// TestFig1Deterministic: fig1 is the same Result, down to every trace
// event and series sample, whether the Go runtime schedules it on one
// host thread or on all of them. SetParallelism empties the run memo,
// so the second run simulates too.
func TestFig1Deterministic(t *testing.T) {
	a := runExperiment(t, "fig1")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	experiments.SetParallelism(0)
	if b := runExperiment(t, "fig1"); !reflect.DeepEqual(a, b) {
		t.Error("fig1 differs between GOMAXPROCS=1 and the host default")
	}
}

// TestFig1DeterministicParallel: each fig1 mode simulates on its own
// kernel and results merge by configuration index, never completion
// order, so -par 2 and 3 — the uneven splits the golden table does not
// run — give the -par 1 Result.
func TestFig1DeterministicParallel(t *testing.T) {
	defer experiments.SetParallelism(0)
	experiments.SetParallelism(1)
	seq := runExperiment(t, "fig1")
	for _, par := range []int{2, 3} {
		experiments.SetParallelism(par)
		if res := runExperiment(t, "fig1"); !reflect.DeepEqual(seq, res) {
			t.Errorf("fig1 at -par %d differs from -par 1", par)
		}
	}
}

// TestExtChaosDeterministic extends the one-seed-one-behaviour
// guarantee to fault injection under a seed offset outside the golden
// table: seed 3 must produce the same crash instants, drop decisions,
// retry backoffs and recovery twice over, must differ from seed 0, and
// must leave nothing behind that moves seed 0 once it is restored.
// Setting the seed empties the run memo, so every run here simulates.
func TestExtChaosDeterministic(t *testing.T) {
	defer experiments.SetBaseSeed(0)
	base := runExperiment(t, "ext-chaos")
	experiments.SetBaseSeed(3)
	shifted := runExperiment(t, "ext-chaos")
	experiments.SetBaseSeed(3)
	if again := runExperiment(t, "ext-chaos"); !reflect.DeepEqual(shifted, again) {
		t.Error("ext-chaos at seed 3 differs from itself")
	}
	if reflect.DeepEqual(base, shifted) {
		t.Error("ext-chaos at seed 3 is seed 0's run: the seed offset reached no fault decision")
	}
	experiments.SetBaseSeed(0)
	if restored := runExperiment(t, "ext-chaos"); !reflect.DeepEqual(base, restored) {
		t.Error("ext-chaos at seed 0 moved after a seed-3 run")
	}
}

// TestExtFailoverDeterministic5Seeds sweeps the replication stack —
// heartbeats, lease renewals, group-commit batches, promotion, resync —
// across five base seeds: the headline durability guarantee (no acked
// write lost at RF=2, with no rebuilder anywhere) must hold at every
// seed, not just the committed one. Each seed reproducing itself is
// held by the golden table (seeds 0-2) and CI's seed sweep (1-5).
func TestExtFailoverDeterministic5Seeds(t *testing.T) {
	defer experiments.SetBaseSeed(0)
	for seed := int64(1); seed <= 5; seed++ {
		experiments.SetBaseSeed(seed)
		a, err := experiments.Run("ext-failover", experiments.TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.EventsProcessed == 0 {
			t.Fatalf("seed %d: no kernel event counts", seed)
		}
		if a.Values["lost_rf2"] != 0 {
			t.Errorf("seed %d: lost_rf2 = %v acked objects, want 0", seed, a.Values["lost_rf2"])
		}
		if a.Values["promotions"] < 1 {
			t.Errorf("seed %d: promotions = %v, want >= 1", seed, a.Values["promotions"])
		}
	}
}

// failoverRoutingRun drives a writer through a primary crash and
// records how the directory routed it: the pre-crash primary machine,
// the post-promotion machine, and the full control-plane trace.
func failoverRoutingRun(t *testing.T, seed int64) (before, after cluster.MachineID, trace []string) {
	t.Helper()
	cfgs := []cluster.MachineConfig{
		{Cores: 4, MemBytes: 256 << 20},
		{Cores: 4, MemBytes: 256 << 20},
		{Cores: 4, MemBytes: 256 << 20},
		{Cores: 4, MemBytes: 256 << 20},
	}
	sysCfg := core.DefaultConfig()
	sysCfg.Seed = seed
	sys := core.NewSystem(sysCfg, cfgs)
	defer sys.Close()
	sys.Start()
	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	sys.AttachInjector(in)
	rm := sys.EnableReplicationPlane(replication.Config{}, 3)

	mp, err := core.NewMemoryProcletOn(sys, "route-store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	before = mp.Location()
	in.Install(fault.Schedule{{At: sim.Time(2 * time.Millisecond), Op: fault.OpCrash, A: 1}})

	const n = 40
	acked := 0
	sys.K.Spawn("route-writer", func(p *sim.Proc) {
		// Writes from the monitor machine straddle the crash; every one
		// that acks must stay readable, and the directory must chase the
		// promoted backup without help from the client.
		for i := 0; i < n; i++ {
			if err := mp.Put(p, 3, uint64(i), i*3, 256); err == nil {
				acked++
			}
			p.Sleep(200 * time.Microsecond)
		}
		for i := 0; i < acked; i++ {
			v, err := mp.Get(p, 3, uint64(i))
			if err != nil {
				t.Errorf("seed %d: get %d after failover: %v", seed, i, err)
			} else if v.(int) != i*3 {
				t.Errorf("seed %d: key %d = %v, want %d", seed, i, v, i*3)
			}
		}
		sys.K.Stop()
	})
	sys.K.Run()

	if acked < n {
		t.Errorf("seed %d: only %d/%d puts acked (retry budget should bridge the confirm window)", seed, acked, n)
	}
	after = mp.Location()
	if rm.Promotions.Value() != 1 {
		t.Errorf("seed %d: promotions = %d, want 1", seed, rm.Promotions.Value())
	}
	return before, after, sys.Trace.Lines()
}

// TestDirectoryRoutingDuringFailover checks, across five seeds, that a
// writer caught mid-crash is re-routed by the directory to the promoted
// backup — same machine, same trace, twice per seed — and that the
// promoted primary never lands back on the crashed machine.
func TestDirectoryRoutingDuringFailover(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		b1, a1, tr1 := failoverRoutingRun(t, seed)
		if b1 != 1 {
			t.Fatalf("seed %d: primary placed on m%d, want m1", seed, b1)
		}
		if a1 == 1 {
			t.Errorf("seed %d: promoted primary on the crashed machine", seed)
		}
		b2, a2, tr2 := failoverRoutingRun(t, seed)
		if b1 != b2 || a1 != a2 {
			t.Errorf("seed %d: routing not deterministic: m%d->m%d vs m%d->m%d", seed, b1, a1, b2, a2)
		}
		if len(tr1) != len(tr2) {
			t.Fatalf("seed %d: trace length %d vs %d", seed, len(tr1), len(tr2))
		}
		for i := range tr1 {
			if tr1[i] != tr2[i] {
				t.Fatalf("seed %d: trace diverges at %d:\n  %s\n  %s", seed, i, tr1[i], tr2[i])
			}
		}
	}
}
