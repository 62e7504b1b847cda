package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

const smoke = `name: smoke
horizon_ms: 4
fleet:
  shards: 2
  machines: 3
workload:
  stores: 2
  objects: 48
  write_frac: 0.2
  tenants:
    - name: web
      rate: 60000
assertions:
  - metric: lost
    op: ==
    value: 0
  - metric: generated
    op: ">"
    value: 100
`

func mustRun(t *testing.T, src string, opt Options) *Outcome {
	t.Helper()
	sp, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunSmokeDeterministic runs the same scenario three times — twice
// at one worker, once at four — and requires byte-identical reports:
// the DSL's central contract is that a (scenario, seed) pair names one
// exact execution regardless of parallelism.
func TestRunSmokeDeterministic(t *testing.T) {
	var reports [3]bytes.Buffer
	for i, par := range []int{1, 1, 4} {
		out := mustRun(t, smoke, Options{Par: par})
		if !out.Pass {
			t.Fatalf("run %d: assertions failed:\n%+v", i, out.Asserts)
		}
		out.WriteReport(&reports[i])
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Error("same seed, same workers: reports differ")
	}
	if !bytes.Equal(reports[0].Bytes(), reports[2].Bytes()) {
		t.Error("par=1 and par=4 reports differ; worker count leaked into the simulation")
	}
}

// TestRunSamplerBuiltThenSharedSameReport: load.NewZipf keeps every
// sampler it builds for the life of the process. The first run below
// builds the (keys, zipf) pair no other test uses — and its second
// tenant already shares it — the second run finds it; the reports must
// not be able to tell.
func TestRunSamplerBuiltThenSharedSameReport(t *testing.T) {
	src := strings.Replace(smoke, "      rate: 60000\n",
		"      rate: 60000\n      keys: 77777\n      zipf: 0.77\n"+
			"    - name: batch\n      rate: 20000\n      keys: 77777\n      zipf: 0.77\n", 1)
	var reports [2]bytes.Buffer
	for i := range reports {
		mustRun(t, src, Options{}).WriteReport(&reports[i])
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Errorf("the run that built the sampler and the run that reused it report differently:\n%s\n---\n%s",
			reports[0].String(), reports[1].String())
	}
}

func TestRunSeedChangesOutcome(t *testing.T) {
	a := mustRun(t, smoke, Options{Seed: 1})
	b := mustRun(t, smoke, Options{Seed: 2})
	if a.Seed != 1 || b.Seed != 2 {
		t.Fatalf("seeds = %d, %d", a.Seed, b.Seed)
	}
	if a.Metrics["generated"] == b.Metrics["generated"] &&
		a.Metrics["p99_ms"] == b.Metrics["p99_ms"] {
		t.Error("seeds 1 and 2 produced identical arrivals and tail; seed is not reaching the run")
	}
}

// TestFailingAssertionReported: an unsatisfiable bound must flip the
// outcome to fail and carry the observed value in the result row.
func TestFailingAssertionReported(t *testing.T) {
	src := strings.Replace(smoke, "    value: 100\n", "    value: 1000000000\n", 1)
	out := mustRun(t, src, Options{})
	if out.Pass {
		t.Fatal("outcome passed despite impossible generated > 1e9 bound")
	}
	var failed *AssertResult
	for i := range out.Asserts {
		if !out.Asserts[i].Pass {
			failed = &out.Asserts[i]
		}
	}
	if failed == nil {
		t.Fatal("no failing AssertResult recorded")
	}
	if failed.Metric != "generated" || failed.Got <= 0 || failed.Got >= 1e9 {
		t.Errorf("failing row = %+v, want generated with the observed count", *failed)
	}
	var rep bytes.Buffer
	out.WriteReport(&rep)
	if !strings.Contains(rep.String(), "assert FAIL: generated > 1000000000") {
		t.Errorf("report missing FAIL line:\n%s", rep.String())
	}
	if !strings.Contains(rep.String(), "RESULT FAIL") {
		t.Errorf("report missing RESULT FAIL summary:\n%s", rep.String())
	}
}

// flightDump returns WriteFlightDump's header and entry lines.
func flightDump(t *testing.T, out *Outcome) (header string, entries []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := out.WriteFlightDump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	return lines[0], lines[1:]
}

// TestFlightDumpIsTheTailOfEachShardsLog: the post-mortem of a failing
// run is nothing but the last 64 events each shard already logged,
// sorted by (time, shard) and tagged with the shard; what fell off the
// front of each log is counted, not kept.
func TestFlightDumpIsTheTailOfEachShardsLog(t *testing.T) {
	src := strings.Replace(smoke, "    value: 100\n", "    value: 1000000000\n", 1)
	src = strings.Replace(src, "  stores: 2\n", "  stores: 30\n  rf: 2\n", 1)
	out := mustRun(t, src, Options{})
	if out.Pass {
		t.Fatal("outcome passed despite impossible generated > 1e9 bound")
	}
	type tagged struct {
		shard int
		e     obs.Event
	}
	var tail []tagged
	evicted := 0
	for s, l := range out.logs {
		ev := l.Events()
		if n := len(ev) - 64; n > 0 {
			evicted += n
			ev = ev[n:]
		}
		for _, e := range ev {
			tail = append(tail, tagged{s, e})
		}
	}
	if len(out.logs) != 2 || evicted == 0 {
		t.Fatalf("%d shard logs, %d events evicted: the test needs 2 shards with more than 64 events", len(out.logs), evicted)
	}
	sort.SliceStable(tail, func(i, j int) bool {
		if tail[i].e.At != tail[j].e.At {
			return tail[i].e.At < tail[j].e.At
		}
		return tail[i].shard < tail[j].shard
	})
	header, entries := flightDump(t, out)
	if want := fmt.Sprintf("flight recorder: smoke seed %d (%d entries, %d evicted)", out.Seed, len(tail), evicted); header != want {
		t.Errorf("header = %q, want %q", header, want)
	}
	if len(entries) != len(tail) {
		t.Fatalf("%d entry lines, want %d", len(entries), len(tail))
	}
	for i, tg := range tail {
		if want := fmt.Sprintf("s%-2d %v", tg.shard, tg.e); entries[i] != want {
			t.Fatalf("entry %d = %q, want %q", i, entries[i], want)
		}
	}
}

// TestFlightDumpShowsAnIncidentTransitionOnce: slow-node opens one
// incident and resolves it (its own assertions say so); the dump shows
// the open and the close once each and repeats no line.
func TestFlightDumpShowsAnIncidentTransitionOnce(t *testing.T) {
	src, err := os.ReadFile("../../scenarios/slow-node.yaml")
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, string(src), Options{})
	if !out.Pass {
		t.Fatal("slow-node failed its assertions")
	}
	_, entries := flightDump(t, out)
	seen := map[string]bool{}
	opens, closes := 0, 0
	for _, line := range entries {
		if seen[line] {
			t.Errorf("line repeated: %q", line)
		}
		seen[line] = true
		if !strings.Contains(line, " "+obs.KindIncident+" ") {
			continue
		}
		switch {
		case strings.Contains(line, "(open "):
			opens++
		case strings.Contains(line, "(close "):
			closes++
		}
	}
	if opens != 1 || closes != 1 {
		t.Errorf("dump shows %d incident opens and %d closes, want 1 and 1:\n%s", opens, closes, strings.Join(entries, "\n"))
	}
}

// TestCrashWithoutRebuildLosesData: at rf=1 with no rebuilder and no
// restart, a crashed store's objects must be reported lost — the
// verifier is real, not cosmetic.
func TestCrashWithoutRebuildLosesData(t *testing.T) {
	src := `name: lossy
horizon_ms: 6
fleet:
  machines: 3
workload:
  stores: 2
  objects: 32
  write_frac: 0.2
  tenants:
    - name: web
      rate: 40000
events:
  - at_ms: 2
    kind: crash
    machine: 1
`
	out := mustRun(t, src, Options{})
	if out.Metrics["lost"] == 0 {
		t.Error("crashed rf=1 store with no rebuild reported zero loss")
	}
	if out.Metrics["crashes"] != 1 {
		t.Errorf("crashes = %g, want 1", out.Metrics["crashes"])
	}
}

// TestRebuildRecoversData is the converse: the same crash with the
// rebuild fallback enabled must end with nothing lost.
func TestRebuildRecoversData(t *testing.T) {
	src := `name: rebuilt
horizon_ms: 8
fleet:
  machines: 3
workload:
  stores: 2
  rebuild: true
  objects: 32
  write_frac: 0.2
  tenants:
    - name: web
      rate: 40000
events:
  - at_ms: 2
    kind: crash
    machine: 1
  - at_ms: 4
    kind: restart
    machine: 1
`
	out := mustRun(t, src, Options{})
	if out.Metrics["lost"] != 0 {
		t.Errorf("lost = %g with rebuild enabled, want 0", out.Metrics["lost"])
	}
	if out.Metrics["recoveries"] < 1 {
		t.Errorf("recoveries = %g, want >= 1", out.Metrics["recoveries"])
	}
}

func TestWriteJSONShape(t *testing.T) {
	out := mustRun(t, smoke, Options{})
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenario   string             `json:"scenario"`
		Seed       int64              `json:"seed"`
		Pass       bool               `json:"pass"`
		Metrics    map[string]float64 `json:"metrics"`
		Assertions []AssertResult     `json:"assertions"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Scenario != "smoke" || !doc.Pass || len(doc.Assertions) != 2 {
		t.Errorf("unexpected JSON report: %+v", doc)
	}
	for _, name := range MetricNames {
		if _, ok := doc.Metrics[name]; !ok {
			t.Errorf("JSON metrics missing %q", name)
		}
	}
}

func TestOptionsSeedZeroUsesSpecSeed(t *testing.T) {
	src := strings.Replace(smoke, "name: smoke\n", "name: smoke\nseed: 7\n", 1)
	out := mustRun(t, src, Options{})
	if out.Seed != 7 {
		t.Errorf("seed = %d, want committed spec seed 7", out.Seed)
	}
}

// gpuTrain is a scenario with a GPU training rider: two checkpointed
// trainers on identical devices, one of which dies fatally mid-run.
const gpuTrain = `name: gpu-train
horizon_ms: 40
fleet:
  machines: 3
  gpus:
    - count: 2
      mem_mb: 256
      class: a100
workload:
  stores: 2
  objects: 32
  write_frac: 0.2
  tenants:
    - name: web
      rate: 20000
  trainers:
    count: 2
    model_mb: 64
    step_us: 500
    batch_kb: 64
    checkpoint_kb: 128
    snapshot_every: 16
events:
  - at_ms: 10
    kind: gpu_xid
    machine: 1
    gpu: 0
`

// TestGPUXidCheckpointRestore: a fatal device error mid-run must be
// absorbed by a checkpoint re-placement with zero acknowledged steps
// lost — the scenario-level restatement of the gpu package's core
// robustness guarantee.
func TestGPUXidCheckpointRestore(t *testing.T) {
	out := mustRun(t, gpuTrain, Options{})
	m := out.Metrics
	if m["gpu_xids"] != 1 {
		t.Errorf("gpu_xids = %g, want 1", m["gpu_xids"])
	}
	if m["gpu_restores"] != 1 {
		t.Errorf("gpu_restores = %g, want 1", m["gpu_restores"])
	}
	if m["lost_steps"] != 0 {
		t.Errorf("lost_steps = %g, want 0 (checkpointing is on)", m["lost_steps"])
	}
	// Full-model snapshots every 16th step dominate the step budget, so
	// the bound is well under the no-snapshot ideal (~80 steps/trainer).
	if m["trainer_steps"] < 50 {
		t.Errorf("trainer_steps = %g, want >= 50 (training must keep moving)", m["trainer_steps"])
	}
	if m["checkpoints"] < m["trainer_steps"] {
		t.Errorf("checkpoints = %g < trainer_steps = %g; every acked step must be mirrored",
			m["checkpoints"], m["trainer_steps"])
	}
	if m["lost"] != 0 {
		t.Errorf("serving lost = %g, want 0", m["lost"])
	}
}

// TestGPUStragglerMitigated: a thermal throttle on one device must trip
// the straggler detector and re-dispatch the victim to a faster spare.
func TestGPUStragglerMitigated(t *testing.T) {
	src := strings.Replace(gpuTrain,
		`  - at_ms: 10
    kind: gpu_xid
    machine: 1
    gpu: 0
`,
		`  - at_ms: 10
    kind: gpu_throttle
    machine: 1
    gpu: 0
    factor: 4
`, 1)
	out := mustRun(t, src, Options{})
	m := out.Metrics
	if m["gpu_throttles"] != 1 {
		t.Errorf("gpu_throttles = %g, want 1", m["gpu_throttles"])
	}
	if m["gpu_mitigations"] < 1 {
		t.Errorf("gpu_mitigations = %g, want >= 1 (straggler must be re-dispatched)", m["gpu_mitigations"])
	}
	if m["lost_steps"] != 0 {
		t.Errorf("lost_steps = %g, want 0", m["lost_steps"])
	}
}

// TestGPUUncheckpointedXidLosesWork: the same fatal error without a
// checkpoint mirror must restart training from step zero and report
// every acknowledged step lost.
func TestGPUUncheckpointedXidLosesWork(t *testing.T) {
	src := strings.Replace(gpuTrain, "    checkpoint_kb: 128\n    snapshot_every: 16\n", "", 1)
	out := mustRun(t, src, Options{})
	m := out.Metrics
	if m["gpu_restores"] != 1 {
		t.Errorf("gpu_restores = %g, want 1", m["gpu_restores"])
	}
	if m["lost_steps"] < 1 {
		t.Errorf("lost_steps = %g, want >= 1 without checkpoints", m["lost_steps"])
	}
	if m["checkpoints"] != 0 {
		t.Errorf("checkpoints = %g, want 0", m["checkpoints"])
	}
}

// TestGPUTrainDeterministic: the GPU rider must preserve the DSL's
// byte-identical-reports contract across worker counts.
func TestGPUTrainDeterministic(t *testing.T) {
	var reports [2]bytes.Buffer
	for i, par := range []int{1, 4} {
		out := mustRun(t, gpuTrain, Options{Par: par})
		out.WriteReport(&reports[i])
	}
	if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
		t.Error("par=1 and par=4 GPU-trainer reports differ; worker count leaked into the simulation")
	}
}

// goroutinesSettle waits for the goroutine count to fall back to want: a
// process unwound by Kernel.Close has reported in slightly before the
// runtime stops counting its goroutine.
func goroutinesSettle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive after the run, %d before it: the fleet leaked", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestRunLeavesNoGoroutines: a run's daemons (reactors, servers, ping
// loops) are still parked when it ends; Run must release them and the
// shard state they pin, at one worker and at several.
func TestRunLeavesNoGoroutines(t *testing.T) {
	mustRun(t, smoke, Options{Par: 1}) // anything lazily started by a first run
	before := runtime.NumGoroutine()
	for _, par := range []int{1, 4} {
		mustRun(t, smoke, Options{Par: par})
		goroutinesSettle(t, before)
	}
}

// TestRunPreloadFailuresAreLocatedErrors: a preload that Parse cannot
// rule out but the fleet cannot take used to panic Run's setup process,
// and one still on the wire when the run ended was reported as a fleet
// that "did not drain (0 served of 0 generated)". Both are errors that
// name the shard, the store and the field to change.
func TestRunPreloadFailuresAreLocatedErrors(t *testing.T) {
	// Each machine fits one store; a migration at t=0 puts both on machine
	// 2 before either preload lands.
	crowded := strings.Replace(minimal, "  machines: 3\n", "  machines: 3\n  mem_mb: 1\n", 1)
	crowded = strings.Replace(crowded, "  objects: 32\n", "  objects: 32\n  object_bytes: 20000\n", 1) +
		"events:\n  - at_ms: 0\n    kind: migrate\n    store: 0\n    to: 2\n"
	// 2 × 32 objects of 1 MB do not cross the fabric in 10 ms.
	slow := strings.Replace(minimal, "  objects: 32\n", "  objects: 32\n  object_bytes: 1000000\n", 1)
	for _, tc := range []struct{ name, src, want string }{
		{"out of memory", crowded, `scenario "mini": shard 0: preload of store 1 (32 objects of 20000 bytes): cluster: out of memory: machine 2: 642048 requested, 406528 free: raise fleet.mem_mb or shrink workload.objects × object_bytes`},
		{"still on the wire", slow, `scenario "mini": shard 0: the preload of 2 stores (32 objects of 1000000 bytes each) was still on the wire at 10ms, so no request was ever generated — raise horizon_ms or shrink workload.objects × object_bytes`},
	} {
		sp, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: Parse: %v", tc.name, err)
		}
		if _, err := Run(sp, Options{}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Run error = %v\nwant %s", tc.name, err, tc.want)
		}
	}
}
