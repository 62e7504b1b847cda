package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

func TestListAndTitles(t *testing.T) {
	ids := List()
	if len(ids) != 20 {
		t.Fatalf("List() = %v, want 20 experiments", ids)
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
	if _, err := Run("nope", TestScale); err == nil {
		t.Error("Run(unknown) succeeded")
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Run("fig1", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Values["quicksand.goodput_pct"]
	pinned := res.Values["pinned.goodput_pct"]
	coarse := res.Values["coarse.goodput_pct"]
	// Paper shape: Quicksand ~full utilization, pinned ~half, coarse no
	// better than pinned.
	if qs < 80 {
		t.Errorf("quicksand goodput = %.1f%%, want >= 80%%", qs)
	}
	if pinned > 60 || pinned < 35 {
		t.Errorf("pinned goodput = %.1f%%, want ~50%%", pinned)
	}
	if qs < 1.5*pinned {
		t.Errorf("quicksand (%.1f%%) should be ~2x pinned (%.1f%%)", qs, pinned)
	}
	if coarse > qs-15 {
		t.Errorf("coarse goodput = %.1f%% too close to quicksand %.1f%%", coarse, qs)
	}
	// Migration latency must be sub-millisecond for the small filler
	// proclets.
	if mig := res.Values["quicksand.mig_mean_ms"]; mig <= 0 || mig >= 1 {
		t.Errorf("quicksand mean migration = %.3f ms, want (0, 1)", mig)
	}
	if res.Values["quicksand.migrations"] == 0 {
		t.Error("quicksand performed no migrations")
	}
	// Reaction within a couple of milliseconds of each flip.
	if react := res.Values["quicksand.react_ms"]; react > 3 {
		t.Errorf("quicksand reaction = %.2f ms, want <= 3 ms", react)
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Run("fig2", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	base := res.Values["baseline.seconds"]
	if base <= 0 {
		t.Fatal("baseline did not run")
	}
	for _, cfg := range []string{"cpu-unbalanced", "mem-unbalanced", "both-unbalanced"} {
		ratio := res.Values[cfg+".ratio"]
		// Paper: within ~2% of baseline; allow 15% in the small-scale
		// simulation (fixed overheads weigh more on a 1-second run).
		if ratio > 1.15 {
			t.Errorf("%s ratio = %.3f, want <= 1.15 (near-parity)", cfg, ratio)
		}
		if ratio < 0.85 {
			t.Errorf("%s ratio = %.3f, suspiciously fast", cfg, ratio)
		}
	}
	// The static even split must OOM on the hardest (both-unbalanced)
	// configuration.
	if res.Values["static_even.oom"] != 1 {
		t.Error("static even-split did not OOM on both-unbalanced")
	}
	// The feasible static variant must strand CPU: clearly slower than
	// Quicksand's baseline-parity result.
	if s := res.Values["static_bymem.ratio"]; s != 0 && s < 1.5 {
		t.Errorf("static by-memory ratio = %.2f, want >= 1.5 (stranded CPU)", s)
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Run("fig3", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["splits"] == 0 || res.Values["merges"] == 0 {
		t.Errorf("splits=%v merges=%v, want both > 0",
			res.Values["splits"], res.Values["merges"])
	}
	// Paper: new equilibrium in 10-15 ms. Allow up to 60 ms here: the
	// settle detector is conservative (requires a 20 ms hold).
	if mean := res.Values["react_mean_ms"]; mean <= 0 || mean > 60 {
		t.Errorf("react_mean_ms = %.1f, want (0, 60]", mean)
	}
	if util := res.Values["gpu_util_pct"]; util < 80 {
		t.Errorf("gpu utilization = %.1f%%, want >= 80%%", util)
	}
}

func TestAblMigrationShape(t *testing.T) {
	res, err := Run("abl-migration", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	small := res.Values["latency_ms.65536"]
	mid := res.Values["latency_ms.1048576"]
	big := res.Values["latency_ms.10485760"]
	if small <= 0 || small >= 1 {
		t.Errorf("64KiB migration = %.3f ms, want sub-millisecond", small)
	}
	if big < 1 || big > 5 {
		t.Errorf("10MiB migration = %.3f ms, want 'a few ms' (1-5)", big)
	}
	if !(small < mid && mid < big) {
		t.Errorf("latencies not increasing: %v %v %v", small, mid, big)
	}
}

func TestAblSplitShape(t *testing.T) {
	res, err := Run("abl-split", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	s1 := res.Values["split_ms.1048576"]
	s8 := res.Values["split_ms.8388608"]
	if s1 <= 0 || s8 <= 0 {
		t.Fatalf("splits not measured: %v %v", s1, s8)
	}
	if s8 < 2*s1 {
		t.Errorf("split cost should scale with cap: 1MiB=%.3f 8MiB=%.3f", s1, s8)
	}
}

func TestAblPrefetchShape(t *testing.T) {
	res, err := Run("abl-prefetch", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Values["speedup"]; sp < 1.3 {
		t.Errorf("prefetch speedup = %.2fx, want >= 1.3x", sp)
	}
	// With prefetch the scan should approach the max(wire, compute)
	// bound, i.e., well under 2x ideal.
	if res.Values["prefetch_ms"] > 2*res.Values["ideal_ms"] {
		t.Errorf("prefetch %vms vs ideal %vms: overlap not effective",
			res.Values["prefetch_ms"], res.Values["ideal_ms"])
	}
}

func TestAblSchedShape(t *testing.T) {
	res, err := Run("abl-sched", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	two := res.Values["two-level.goodput_pct"]
	local := res.Values["local-only.goodput_pct"]
	global := res.Values["global-only.goodput_pct"]
	if two < 80 || local < 80 {
		t.Errorf("two-level=%.1f local-only=%.1f, both should harvest windows", two, local)
	}
	if global > two-15 {
		t.Errorf("global-only=%.1f too close to two-level=%.1f; 50ms period must miss 10ms windows", global, two)
	}
}

func TestAblLocalityShape(t *testing.T) {
	res, err := Run("abl-locality", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["affinity_moves"] == 0 {
		t.Error("no affinity moves happened")
	}
	if sp := res.Values["speedup"]; sp < 1.5 {
		t.Errorf("colocation speedup = %.2fx, want >= 1.5x", sp)
	}
}

func TestResultPrint(t *testing.T) {
	res, err := Run("abl-migration", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "abl-migration") || !strings.Contains(out, "latency") {
		t.Errorf("Print output missing content:\n%s", out)
	}
}

func TestExtGPUShape(t *testing.T) {
	res, err := Run("ext-gpu", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Values["gpu-proclets.ideal_pct"]
	restart := res.Values["restart.ideal_pct"]
	if qs < 90 {
		t.Errorf("gpu-proclets = %.1f%% of ideal, want >= 90%%", qs)
	}
	if restart > qs-15 {
		t.Errorf("restart = %.1f%% too close to gpu-proclets %.1f%%", restart, qs)
	}
	if res.Values["gpu-proclets.evacs"] == 0 {
		t.Error("no evacuations recorded")
	}
	if res.Values["restart.restarts"] == 0 {
		t.Error("baseline performed no restarts")
	}
	// Evacuation = device download + wire + upload: tens of ms for a
	// 512 MiB model, far below the 1 s restart cost.
	if ms := res.Values["evac_mean_ms"]; ms <= 0 || ms > 200 {
		t.Errorf("evac_mean_ms = %.1f, want (0, 200]", ms)
	}
}

func TestAblGranularityShape(t *testing.T) {
	res, err := Run("abl-granularity", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	g1 := res.Values["goodput_pct.1"]
	g8 := res.Values["goodput_pct.8"]
	if g8 < g1+15 {
		t.Errorf("granular goodput %.1f%% should beat monolithic %.1f%% clearly", g8, g1)
	}
	if m1, m8 := res.Values["mig_mean_ms.1"], res.Values["mig_mean_ms.8"]; m1 < 2*m8 {
		t.Errorf("monolithic migration %.2fms should dwarf granular %.2fms", m1, m8)
	}
}

func TestAblReactorShape(t *testing.T) {
	res, err := Run("abl-reactor", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	fast := res.Values["goodput_pct.200"]
	slow := res.Values["goodput_pct.20000"]
	if fast < 80 {
		t.Errorf("200us reactor goodput = %.1f%%, want >= 80%%", fast)
	}
	if slow > fast-20 {
		t.Errorf("20ms reactor %.1f%% should be far below 200us %.1f%%", slow, fast)
	}
}

func TestExtHarvestShape(t *testing.T) {
	res, err := Run("ext-harvest", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	qs := res.Values["quicksand.goodput_pct"]
	static := res.Values["static.goodput_pct"]
	if qs < 80 {
		t.Errorf("quicksand fleet goodput = %.1f%%, want >= 80%%", qs)
	}
	if static > 45 {
		t.Errorf("static goodput = %.1f%%, want ~33%%", static)
	}
	if qs < 2*static {
		t.Errorf("quicksand (%.1f%%) should be >= 2x static (%.1f%%)", qs, static)
	}
}

func TestExtMemHarvestShape(t *testing.T) {
	res, err := Run("ext-memharvest", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["read_errs"] != 0 {
		t.Errorf("read_errs = %v, want 0 (no data loss under harvesting)", res.Values["read_errs"])
	}
	if res.Values["evictions"] == 0 {
		t.Error("no shard evacuations: the tenant never created pressure")
	}
	if res.Values["reads"] < 100 {
		t.Errorf("reads = %v, too few to be meaningful", res.Values["reads"])
	}
}

// TestMemHarvestTraceCausality: the traced ext-memharvest run exports a
// record stream in which at least one migration span descends from a
// memory-pressure span — the tenant's ramp, not a rebalance, moved the
// shard.
func TestMemHarvestTraceCausality(t *testing.T) {
	dir := t.TempDir()
	SetTraceDir(dir)
	defer SetTraceDir("")
	if _, err := Run("ext-memharvest", TestScale); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ext-memharvest.trace.json")); err != nil {
		t.Errorf("no Chrome trace beside the record stream: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "ext-memharvest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]obs.Record{}
	for _, r := range recs {
		if r.Type == "span" {
			byID[r.ID] = r
		}
	}
	caused := 0
	for _, r := range byID {
		if r.Kind != obs.KindMigrate {
			continue
		}
		for p := r.Parent; p != 0; p = byID[p].Parent {
			if pr := byID[p]; pr.Kind == obs.KindPressure && pr.Name == "mem" {
				caused++
				break
			}
		}
	}
	if caused == 0 {
		t.Fatal("no migration span descends from a mem pressure span")
	}
}

// TestExperimentDeterminism: the flagship property of the simulation —
// running the same experiment twice yields bit-identical results.
func TestExperimentDeterminism(t *testing.T) {
	for _, id := range []string{"fig1", "fig3", "abl-migration"} {
		r1, err := Run(id, TestScale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r2, err := Run(id, TestScale)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r1.Values) != len(r2.Values) {
			t.Fatalf("%s: value sets differ", id)
		}
		for k, v := range r1.Values {
			if r2.Values[k] != v {
				t.Errorf("%s: %s = %v vs %v across runs", id, k, v, r2.Values[k])
			}
		}
		for i := range r1.Lines {
			if r1.Lines[i] != r2.Lines[i] {
				t.Errorf("%s: line %d differs:\n%s\n%s", id, i, r1.Lines[i], r2.Lines[i])
			}
		}
	}
}

// TestFig1RunComputeMatchesBlockingUnit: the filler unit enqueued with
// RunCompute — counted in kernel context, its worker never switched in —
// is the same simulation as the closure it replaced, which computes and
// counts on the worker's own thread: every mode of fig1 executes the same
// number of events, writes the same control-plane trace and fills the same
// goodput buckets either way.
func TestFig1RunComputeMatchesBlockingUnit(t *testing.T) {
	blocking := func(cp *core.ComputeProclet, work time.Duration, fn core.TaskFn) {
		cp.Run(func(tc *core.TaskCtx) {
			tc.Compute(work)
			fn(tc)
		})
	}
	cfg := fig1Config(TestScale)
	for _, mode := range []string{"quicksand", "pinned", "coarse"} {
		want, err := fig1RunFull(cfg, mode, nil, blocking)
		if err != nil {
			t.Fatalf("%s, blocking: %v", mode, err)
		}
		got, err := fig1RunFull(cfg, mode, nil, (*core.ComputeProclet).RunCompute)
		if err != nil {
			t.Fatalf("%s, RunCompute: %v", mode, err)
		}
		if got.events != want.events {
			t.Errorf("%s: %d events with RunCompute, %d with the blocking unit", mode, got.events, want.events)
		}
		if !reflect.DeepEqual(got.trace, want.trace) {
			t.Errorf("%s: control-plane traces differ\nRunCompute: %v\nblocking:   %v", mode, got.trace, want.trace)
		}
		for m := range want.perMachine {
			if !reflect.DeepEqual(got.perMachine[m], want.perMachine[m]) {
				t.Errorf("%s: machine %d's goodput series differs", mode, m)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: goodput %.3f%%, %d migrations (mean %.4f ms, max %.4f ms), react %.3f ms with RunCompute; %.3f%%, %d (%.4f, %.4f), %.3f with the blocking unit",
				mode, got.goodputPct, got.migrations, got.migMeanMs, got.migMaxMs, got.reactMeanM,
				want.goodputPct, want.migrations, want.migMeanMs, want.migMaxMs, want.reactMeanM)
		}
		if mode == "quicksand" && (want.migrations == 0 || want.goodputPct < 50) {
			t.Errorf("quicksand mode migrated %d times for %.1f%% goodput: the run exercises nothing", want.migrations, want.goodputPct)
		}
	}
}

func TestAblPostcopyShape(t *testing.T) {
	res, err := Run("abl-postcopy", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	postSmall := res.Values["post_blackout_ms.1048576"]
	postBig := res.Values["post_blackout_ms.67108864"]
	preBig := res.Values["pre_blackout_ms.67108864"]
	if postSmall != postBig {
		t.Errorf("post-copy blackout varies with size: %.3f vs %.3f ms", postSmall, postBig)
	}
	if preBig < 10*postBig {
		t.Errorf("pre-copy 64MiB blackout %.3f ms should dwarf post-copy %.3f ms", preBig, postBig)
	}
	if r := res.Values["resident_ms.67108864"]; r <= postBig {
		t.Errorf("residence %.3f ms should exceed the blackout %.3f ms", r, postBig)
	}
}

func TestExtTieringShape(t *testing.T) {
	res, err := Run("ext-tiering", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	inRAM := res.Values["inram_ms_per_elem"]
	tiered := res.Values["tiered_ms_per_elem"]
	hot := res.Values["hot_ms_per_elem"]
	if tiered < 5*inRAM {
		t.Errorf("cold tiered scan %.3f ms/elem should be flash-bound vs RAM %.3f", tiered, inRAM)
	}
	if hot > 3*inRAM {
		t.Errorf("hot working set %.3f ms/elem should be near RAM speed %.3f", hot, inRAM)
	}
	if res.Values["tiered_faults"] == 0 {
		t.Error("cold scan faulted nothing")
	}
}

func TestFig1SeriesCSV(t *testing.T) {
	res, err := Run("fig1", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SeriesTime) == 0 || len(res.Series) != 6 {
		t.Fatalf("series: %d axes, %d columns, want 6 columns", len(res.SeriesTime), len(res.Series))
	}
	var sb strings.Builder
	res.WriteCSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(res.SeriesTime)+1 {
		t.Errorf("CSV rows = %d, want %d", len(lines), len(res.SeriesTime)+1)
	}
	if !strings.HasPrefix(lines[0], "time_ms,") {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[0], "quicksand_m0_goodput") {
		t.Errorf("CSV header missing series: %q", lines[0])
	}
	// An ablation result produces no CSV.
	abl, _ := Run("abl-migration", TestScale)
	var empty strings.Builder
	abl.WriteCSV(&empty)
	if empty.Len() != 0 {
		t.Error("ablation produced CSV output")
	}
}

func TestExtChaosShape(t *testing.T) {
	res, err := Run("ext-chaos", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["crashes"] != 2 {
		t.Errorf("crashes = %v, want 2 (scripted schedule)", res.Values["crashes"])
	}
	if res.Values["recoveries"] < 4 {
		t.Errorf("recoveries = %v, want >= 4 (stores + compute re-placed)", res.Values["recoveries"])
	}
	// The headline guarantees: no acked object is lost (the rebuilder
	// replays the durable source), and goodput recovers to at least 90%
	// of the no-fault run after the final fault heals.
	if res.Values["lost"] != 0 {
		t.Errorf("lost = %v acked objects, want 0", res.Values["lost"])
	}
	if rf := res.Values["recovered_frac"]; rf < 0.9 {
		t.Errorf("recovered_frac = %.2f, want >= 0.9", rf)
	}
	if rms := res.Values["recovery_ms"]; rms < 0 {
		t.Error("goodput never re-reached the recovery threshold after the final heal")
	}
	// Faults must actually bite: the worst fault-window bucket is well
	// below the no-fault mean.
	if dip := res.Values["dip_frac"]; dip > 0.7 {
		t.Errorf("dip_frac = %.2f, want <= 0.7 (faults should dent goodput)", dip)
	}
	if res.Values["ops"] <= 0 || res.Values["ops"] >= res.Values["ops_nofault"] {
		t.Errorf("ops = %v vs no-fault %v: chaos run should complete fewer ops",
			res.Values["ops"], res.Values["ops_nofault"])
	}
	if len(res.Series["goodput_chaos"]) == 0 || len(res.Series["goodput_nofault"]) == 0 {
		t.Error("missing goodput series")
	}
	// The RF=2 variant has no rebuilder: acked writes must survive the
	// same fault schedule on replicas alone, including the false
	// suspicion induced by the 0-2 partition.
	if res.Values["lost_repl"] != 0 {
		t.Errorf("lost_repl = %v acked objects, want 0 (no rebuilder, RF=2)", res.Values["lost_repl"])
	}
	if res.Values["promotions"] < 2 {
		t.Errorf("promotions = %v, want >= 2", res.Values["promotions"])
	}
	if res.Values["ops_repl"] <= 0 {
		t.Error("rf2 chaos run completed no ops")
	}
	if len(res.Series["goodput_repl"]) == 0 {
		t.Error("missing goodput_repl series")
	}
}

func TestExtFailoverShape(t *testing.T) {
	res, err := Run("ext-failover", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	// The headline guarantee: at RF=2 no acked write is lost, with no
	// rebuilder anywhere — durability comes from replication alone.
	if res.Values["lost_rf2"] != 0 {
		t.Errorf("lost_rf2 = %v acked objects, want 0", res.Values["lost_rf2"])
	}
	// RF=1 with no rebuilder must visibly lose the crashed stores,
	// otherwise the comparison proves nothing.
	if res.Values["lost_rf1"] <= 0 {
		t.Errorf("lost_rf1 = %v, want > 0 (no rebuilder at RF=1)", res.Values["lost_rf1"])
	}
	if res.Values["promotions"] < 2 {
		t.Errorf("promotions = %v, want >= 2 (two affected primaries)", res.Values["promotions"])
	}
	if res.Values["confirms"] < 1 {
		t.Errorf("confirms = %v, want >= 1", res.Values["confirms"])
	}
	// Failover latency must be measured and bounded by the detector's
	// confirm window plus restore, far below the horizon.
	if fo := res.Values["failover_ms_max"]; fo <= 0 || fo > 40 {
		t.Errorf("failover_ms_max = %.2f ms, want (0, 40]", fo)
	}
	if res.Values["ops_rf2"] <= 0 || res.Values["ops_rf1"] <= 0 {
		t.Error("both fault runs should complete ops")
	}
	// Replication costs something but not everything.
	if ov := res.Values["overhead_frac"]; ov < 0 || ov > 0.9 {
		t.Errorf("overhead_frac = %.2f, want [0, 0.9]", ov)
	}
	if res.Values["repl_records"] <= 0 {
		t.Error("rf2 run shipped no replication records")
	}
	if len(res.Series["goodput_rf2"]) == 0 || len(res.Series["goodput_rf1"]) == 0 {
		t.Error("missing goodput series")
	}
}

func TestExtScaleShape(t *testing.T) {
	res, err := Run("ext-scale", TestScale)
	if err != nil {
		t.Fatal(err) // includes the in-run P={1,4,8} determinism assertion
	}
	if res.Values["machines"] != 24 || res.Values["shards"] != 8 {
		t.Errorf("fleet = %v machines / %v shards, want 24/8 at test scale",
			res.Values["machines"], res.Values["shards"])
	}
	if res.Values["ops"] <= 0 || res.Values["cross_ops"] <= 0 {
		t.Errorf("ops = %v, cross_ops = %v: workload did not run",
			res.Values["ops"], res.Values["cross_ops"])
	}
	if res.Values["lost"] != 0 {
		t.Errorf("lost = %v acked objects, want 0 (rebuild across the crash)", res.Values["lost"])
	}
	if res.Values["crashes"] != 1 || res.Values["recoveries"] < 1 {
		t.Errorf("crashes = %v, recoveries = %v, want 1 crash and >= 1 re-placement",
			res.Values["crashes"], res.Values["recoveries"])
	}
	if res.Values["windows"] <= 0 {
		t.Error("no synchronization windows: the run never went parallel-capable")
	}
	if res.Values["cross_msgs"] <= 0 {
		t.Error("no cross-shard RPCs completed")
	}
	if res.Values["wall_ms_p1"] <= 0 || res.Values["wall_ms_p8"] <= 0 {
		t.Error("missing wall_ms_* values")
	}
	if len(res.Trace) == 0 || res.EventsProcessed == 0 {
		t.Error("missing merged trace or event count")
	}
}

func TestExtServeShape(t *testing.T) {
	res, err := Run("ext-serve", TestScale)
	if err != nil {
		t.Fatal(err) // includes the in-run P={1,4,8} determinism assertion
	}
	if res.Values["machines"] != 24 || res.Values["shards"] != 8 {
		t.Errorf("fleet = %v machines / %v shards, want 24/8 at test scale",
			res.Values["machines"], res.Values["shards"])
	}
	if res.Values["clients"] != 25_000 {
		t.Errorf("clients = %v, want 25000 at test scale", res.Values["clients"])
	}
	if res.Values["requests"] <= 0 || res.Values["served"] != res.Values["requests"] {
		t.Errorf("requests = %v served = %v: open-loop stream did not fully drain",
			res.Values["requests"], res.Values["served"])
	}
	if res.Values["errors"] != 0 {
		t.Errorf("errors = %v, want 0 (all keys preloaded)", res.Values["errors"])
	}
	if res.Values["goodput_rps"] <= 0 {
		t.Errorf("goodput_rps = %v, want > 0", res.Values["goodput_rps"])
	}
	// Quantile sanity: p50 <= p99 <= p999, all positive.
	p50, p99, p999 := res.Values["p50_ms"], res.Values["p99_ms"], res.Values["p999_ms"]
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Errorf("quantiles not ordered: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	// Every phase produced traffic and a tail measurement.
	for _, ph := range servePhases {
		if res.Values["p999_ms_"+ph] <= 0 {
			t.Errorf("phase %s has no p999 (no traffic?)", ph)
		}
	}
	// Migration under load actually moved stores, and the migrate-phase
	// tail reflects it (at least as slow as the calm diurnal phase).
	if res.Values["migrations"] != float64(8*serveConfig(TestScale).migratePer) {
		t.Errorf("migrations = %v, want %d", res.Values["migrations"], 8*serveConfig(TestScale).migratePer)
	}
	if res.Values["p999_ms_migrate"] < res.Values["p999_ms_diurnal"] {
		t.Errorf("migrate-phase p999 %v below diurnal %v: migration blackout invisible",
			res.Values["p999_ms_migrate"], res.Values["p999_ms_diurnal"])
	}
	if res.Values["windows"] <= 0 || res.Values["cross_msgs"] <= 0 {
		t.Errorf("windows = %v cross_msgs = %v: fleet never coupled",
			res.Values["windows"], res.Values["cross_msgs"])
	}
	if res.Values["wall_ms_p1"] <= 0 || res.Values["wall_ms_p8"] <= 0 {
		t.Error("missing wall_ms_* values")
	}
	if res.EventsProcessed == 0 {
		t.Error("missing event count")
	}
}

// TestExtServeTraceSampling drives the traced path: per-shard tracers
// with disjoint ID bases, tail-based sampling against the run's
// incidents, and both exports written. The in-run assertions already
// cover P={1,4,8} byte-identity and the 10x reduction bound; here we
// sweep five seeds, and at seed 0 re-run to pin byte-identical exports
// across repeat runs.
func TestExtServeTraceSampling(t *testing.T) {
	dir := t.TempDir()
	SetTraceDir(dir)
	defer SetTraceDir("")
	defer SetBaseSeed(0)
	fullPath := filepath.Join(dir, "ext-serve.full.trace.json")
	sampledPath := filepath.Join(dir, "ext-serve.trace.json")
	for _, seed := range []int64{0, 1, 2, 3, 4} {
		SetBaseSeed(seed)
		res, err := Run("ext-serve", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, sampled := res.Values["trace_spans_full"], res.Values["trace_spans_sampled"]
		if full <= 0 || sampled <= 0 {
			t.Fatalf("seed %d: span counts full=%v sampled=%v", seed, full, sampled)
		}
		if sampled*10 > full {
			t.Errorf("seed %d: sampled %v of %v spans — misses the 10x bound", seed, sampled, full)
		}
		if res.Values["slo_windows"] <= 0 {
			t.Errorf("seed %d: slo plane closed no windows", seed)
		}
		if seed != 0 {
			continue
		}
		fb1, err := os.ReadFile(fullPath)
		if err != nil {
			t.Fatal(err)
		}
		sb1, err := os.ReadFile(sampledPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run("ext-serve", TestScale); err != nil {
			t.Fatalf("seed %d repeat: %v", seed, err)
		}
		fb2, _ := os.ReadFile(fullPath)
		sb2, _ := os.ReadFile(sampledPath)
		if !bytes.Equal(fb1, fb2) || !bytes.Equal(sb1, sb2) {
			t.Errorf("seed %d: exports differ across identical runs (full %d vs %d bytes, sampled %d vs %d)",
				seed, len(fb1), len(fb2), len(sb1), len(sb2))
		}
	}
}

func TestExtServeDeterminism(t *testing.T) {
	defer SetBaseSeed(0)
	for _, seed := range []int64{0, 5} {
		SetBaseSeed(seed)
		r1, err := Run("ext-serve", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := Run("ext-serve", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r1.EventsProcessed != r2.EventsProcessed {
			t.Errorf("seed %d: events %d vs %d across runs", seed, r1.EventsProcessed, r2.EventsProcessed)
		}
		for k, v := range r1.Values {
			if strings.HasPrefix(k, "wall_") {
				continue
			}
			if r2.Values[k] != v {
				t.Errorf("seed %d: %s = %v vs %v across runs", seed, k, v, r2.Values[k])
			}
		}
		for i := range r1.Lines {
			if r1.Lines[i] != r2.Lines[i] {
				t.Errorf("seed %d: line %d differs:\n%s\n%s", seed, i, r1.Lines[i], r2.Lines[i])
			}
		}
		if !reflect.DeepEqual(r1.Trace, r2.Trace) {
			t.Errorf("seed %d: merged traces differ across runs", seed)
		}
	}
}

// Two runs at the same seed must agree on every deterministic value and
// every line, at several base seeds — the host-time wall_* keys are the
// only permitted difference.
func TestExtScaleDeterminism(t *testing.T) {
	defer SetBaseSeed(0)
	for _, seed := range []int64{0, 3} {
		SetBaseSeed(seed)
		r1, err := Run("ext-scale", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := Run("ext-scale", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r1.EventsProcessed != r2.EventsProcessed {
			t.Errorf("seed %d: events %d vs %d across runs", seed, r1.EventsProcessed, r2.EventsProcessed)
		}
		for k, v := range r1.Values {
			if strings.HasPrefix(k, "wall_") {
				continue
			}
			if r2.Values[k] != v {
				t.Errorf("seed %d: %s = %v vs %v across runs", seed, k, v, r2.Values[k])
			}
		}
		for i := range r1.Lines {
			if r1.Lines[i] != r2.Lines[i] {
				t.Errorf("seed %d: line %d differs:\n%s\n%s", seed, i, r1.Lines[i], r2.Lines[i])
			}
		}
		if len(r1.Trace) == 0 || !reflect.DeepEqual(r1.Trace, r2.Trace) {
			t.Errorf("seed %d: merged traces differ across runs", seed)
		}
	}
}

func TestExtGPUFleetShape(t *testing.T) {
	res, err := Run("ext-gpufleet", TestScale)
	if err != nil {
		t.Fatal(err)
	}
	// The headline guarantee: with per-step checkpoint mirrors, the
	// scripted XID + throttle + stutter + reclaim schedule loses zero
	// acknowledged training steps.
	if res.Values["lost_steps"] != 0 {
		t.Errorf("lost_steps = %v, want 0 (checkpointed fleet)", res.Values["lost_steps"])
	}
	// The contrast must visibly bite, or the comparison proves nothing.
	if res.Values["nockpt_lost_steps"] <= 0 {
		t.Errorf("nockpt_lost_steps = %v, want > 0 (XID without a mirror redoes work)",
			res.Values["nockpt_lost_steps"])
	}
	// Every scripted fault produces exactly its reaction: one restore
	// for the XID, one grace-window evacuation for the reclaim, and one
	// mitigation each for the throttled and the stuttering straggler.
	if res.Values["restores"] != 1 {
		t.Errorf("restores = %v, want 1", res.Values["restores"])
	}
	if res.Values["evacuations"] != 1 {
		t.Errorf("evacuations = %v, want 1", res.Values["evacuations"])
	}
	if res.Values["mitigations"] != 2 {
		t.Errorf("mitigations = %v, want 2 (throttle + stutter victims)", res.Values["mitigations"])
	}
	if res.Values["stranded"] != 0 {
		t.Errorf("stranded = %v, want 0 (the spare pool always has room)", res.Values["stranded"])
	}
	// Makespan ordering: the oracle is fastest, robustness costs
	// something bounded, and disabling mitigation costs far more.
	oracle, robust := res.Values["makespan_ms_oracle"], res.Values["makespan_ms_robust"]
	nomit := res.Values["makespan_ms_nomit"]
	if oracle <= 0 || robust <= oracle {
		t.Errorf("makespans oracle=%v robust=%v, want 0 < oracle < robust", oracle, robust)
	}
	if ratio := res.Values["makespan_ratio"]; ratio < 1 || ratio > 2 {
		t.Errorf("makespan_ratio = %v, want within (1, 2]: robustness tax out of band", ratio)
	}
	if nomit <= robust {
		t.Errorf("makespan nomit=%v <= robust=%v: mitigation should pay for itself", nomit, robust)
	}
	if res.Values["steps"] <= 0 {
		t.Error("no training steps recorded")
	}
	if res.EventsProcessed == 0 || len(res.Trace) == 0 {
		t.Error("missing determinism evidence (events/trace)")
	}
}

// Two runs at the same seed must agree on every deterministic value,
// line, and trace event, at several base seeds.
func TestExtGPUFleetDeterminism(t *testing.T) {
	defer SetBaseSeed(0)
	for _, seed := range []int64{0, 4} {
		SetBaseSeed(seed)
		r1, err := Run("ext-gpufleet", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := Run("ext-gpufleet", TestScale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r1.EventsProcessed != r2.EventsProcessed {
			t.Errorf("seed %d: events %d vs %d across runs", seed, r1.EventsProcessed, r2.EventsProcessed)
		}
		for k, v := range r1.Values {
			if strings.HasPrefix(k, "wall_") {
				continue
			}
			if r2.Values[k] != v {
				t.Errorf("seed %d: %s = %v vs %v across runs", seed, k, v, r2.Values[k])
			}
		}
		for i := range r1.Lines {
			if r1.Lines[i] != r2.Lines[i] {
				t.Errorf("seed %d: line %d differs:\n%s\n%s", seed, i, r1.Lines[i], r2.Lines[i])
			}
		}
		if len(r1.Trace) == 0 || !reflect.DeepEqual(r1.Trace, r2.Trace) {
			t.Errorf("seed %d: merged traces differ across runs", seed)
		}
	}
}

// TestRunLeavesNoGoroutines: an experiment's daemons (reactors, the
// global and adaptation loops, antagonists) are still parked when it
// ends; closing its systems must release every one of them.
func TestRunLeavesNoGoroutines(t *testing.T) {
	if _, err := Run("fig1", TestScale); err != nil { // anything lazily started by a first run
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := Run("fig1", TestScale); err != nil {
		t.Fatal(err)
	}
	// A process unwound by Kernel.Close has reported in slightly before
	// the runtime stops counting its goroutine.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after the run, %d before it: the fleet leaked", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}
