package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestUsage: qsctl has four verbs and nothing else. A bare invocation, an
// unknown verb and the flag-only form it used to accept all print the
// usage on stderr and exit 2.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"nope"}, {"-scenario", "serve"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		for _, verb := range []string{"run", "validate", "top", "analyze"} {
			if !strings.Contains(errb.String(), "\n  "+verb+" ") {
				t.Errorf("%v: usage does not name verb %q:\n%s", args, verb, errb.String())
			}
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %q", args, out.String())
		}
	}
}

// TestAnalyzeReportsMethodPercentiles digests the trace file a traced
// ext-memharvest run exports — the producer `qsctl analyze` is fed by.
func TestAnalyzeReportsMethodPercentiles(t *testing.T) {
	dir := t.TempDir()
	experiments.SetTraceDir(dir)
	defer experiments.SetTraceDir("")
	if _, err := experiments.Run("ext-memharvest", experiments.TestScale); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ext-memharvest.trace.json")
	var out, errb bytes.Buffer
	if code := run([]string{"analyze", path}, &out, &errb); code != 0 {
		t.Fatalf("analyze exit = %d (stderr: %s)", code, errb.String())
	}
	rep := out.String()
	for _, want := range []string{"call latency by method", "p50", "p99", "slowest migrations", "pressure:mem m0", "per-machine utilization"} {
		if !strings.Contains(rep, want) {
			t.Errorf("analyze output missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(rep, "rpc") {
		t.Errorf("analyze output has no rpc method rows:\n%s", rep)
	}
	// A negative -top used to print "top -1 of N" over an empty table.
	out.Reset()
	errb.Reset()
	if code := run([]string{"analyze", "-top", "-1", path}, &out, &errb); code != 2 {
		t.Errorf("-top -1: exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-top -1") || out.Len() != 0 {
		t.Errorf("-top -1: stderr %q, stdout %q; want a usage error and no table", errb.String(), out.String())
	}
}

const testScenario = `name: clitest
horizon_ms: 4
fleet:
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

func writeScenario(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scn.yaml")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunScenarioDeterministicAcrossWorkers is the acceptance check:
// `qsctl run` at a fixed seed must print byte-identical reports at
// -par 1, 4, and 8, and accept the file before or after the flags.
func TestRunScenarioDeterministicAcrossWorkers(t *testing.T) {
	path := writeScenario(t, testScenario)
	var first string
	for _, args := range [][]string{
		{"run", path, "-par", "1"},
		{"run", path, "-par", "4"},
		{"run", "-par", "8", path},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit = %d (stderr: %s)", args, code, errb.String())
		}
		if first == "" {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Errorf("%v: report differs from -par 1 run:\n%s", args, out.String())
		}
	}
	if !strings.Contains(first, "RESULT PASS") {
		t.Errorf("report missing RESULT PASS:\n%s", first)
	}
}

func TestRunScenarioFailingAssertExits1(t *testing.T) {
	path := writeScenario(t, strings.Replace(testScenario, "    value: 100\n", "    value: 1000000000\n", 1))
	var out, errb bytes.Buffer
	if code := run([]string{"run", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "RESULT FAIL") {
		t.Errorf("report missing RESULT FAIL:\n%s", out.String())
	}
	// -no-assert still prints the verdict but exits 0, so determinism
	// sweeps can run the library at non-committed seeds.
	out.Reset()
	errb.Reset()
	if code := run([]string{"run", path, "-no-assert"}, &out, &errb); code != 0 {
		t.Fatalf("-no-assert exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
}

func TestRunScenarioParseErrorExits2(t *testing.T) {
	path := writeScenario(t, "name: broken\nevents:\n  - at_ms: 1\n    kind: explode\n")
	var out, errb bytes.Buffer
	if code := run([]string{"run", path}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown event kind "explode"`) {
		t.Errorf("stderr missing parse diagnostic:\n%s", errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"run"}, &out, &errb); code != 2 {
		t.Fatalf("missing file: exit = %d, want 2", code)
	}
}

// TestRunScenarioBadZipfExits2: a tenant skew outside (0, 1) would
// panic load.NewZipf if it reached Run. It is a usage error like any
// other bad field: exit 2, one located line, no stack trace.
func TestRunScenarioBadZipfExits2(t *testing.T) {
	for _, zipf := range []string{"1.5", "1", "-0.5"} {
		path := writeScenario(t, strings.Replace(testScenario, "      rate: 60000\n", "      rate: 60000\n      zipf: "+zipf+"\n", 1))
		var out, errb bytes.Buffer
		if code := run([]string{"run", path}, &out, &errb); code != 2 {
			t.Fatalf("zipf: %s: exit = %d, want 2 (stderr: %s)", zipf, code, errb.String())
		}
		want := `scenario "clitest": tenant "web": zipf must be in (0, 1) (got ` + zipf + `)`
		if got := errb.String(); !strings.Contains(got, want) || strings.Contains(got, "panic") || strings.Contains(got, "goroutine") {
			t.Errorf("zipf: %s: stderr = %q\nwant the diagnostic %q and no stack trace", zipf, got, want)
		}
		if out.Len() != 0 {
			t.Errorf("zipf: %s: a rejected file printed a report:\n%s", zipf, out.String())
		}
	}
}

// TestRunScenarioTooFineSampleStepExits2: a sample step at its own floor
// passed Parse and Run died in load.Sampled with the runtime's "fatal
// error: out of memory", which nothing recovers. The point count it
// implies is bounded now: exit 2, one located line, no stack trace.
func TestRunScenarioTooFineSampleStepExits2(t *testing.T) {
	path := writeScenario(t, strings.Replace(testScenario, "  stores: 2\n", "  stores: 2\n  sample_step_ms: 0.000001\n", 1))
	var out, errb bytes.Buffer
	if code := run([]string{"run", path}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	want := `scenario "clitest": workload: sample_step_ms 1e-06 cuts horizon_ms 4 into 4000000 rate-curve points (limit 100000)`
	if got := errb.String(); !strings.Contains(got, want) || strings.Contains(got, "fatal error") || strings.Contains(got, "goroutine") {
		t.Errorf("stderr = %q\nwant the diagnostic %q and no stack trace", got, want)
	}
	if out.Len() != 0 {
		t.Errorf("a rejected file printed a report:\n%s", out.String())
	}
}

func TestRunScenarioReportAndTraceFiles(t *testing.T) {
	path := writeScenario(t, testScenario)
	dir := t.TempDir()
	rep := filepath.Join(dir, "verdict.json")
	trc := filepath.Join(dir, "trace.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"run", path, "-report", rep, "-trace-out", trc}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	raw, err := os.ReadFile(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenario string `json:"scenario"`
		Pass     bool   `json:"pass"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("verdict is not valid JSON: %v", err)
	}
	if doc.Scenario != "clitest" || !doc.Pass {
		t.Errorf("verdict = %+v", doc)
	}
	if _, err := os.Stat(trc); err != nil {
		t.Errorf("trace file not written: %v", err)
	}
}

// TestAnalyzeMalformedTraceExits1: a damaged trace file must fail the
// whole analysis with the place it goes wrong, not be half read.
func TestAnalyzeMalformedTraceExits1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace.json")
	for _, tc := range []struct{ src, want string }{
		// Cut off mid-event: the byte where the JSON ends.
		{`{"displayTimeUnit":"ms","traceEvents":[
{"name":"rpc:a","cat":"rpc","ph":"X","ts":0,"dur":1,"pid":1,"args":{"span":1}},
{"name":"rpc:b","cat":"rpc","ph":"X","ts":0,"na`, "byte 167"},
		// An event of a phase the exporter never writes: its index.
		{`{"displayTimeUnit":"ms","traceEvents":[{"name":"mystery","ph":"B"}]}`, `event 0 (ph=B "mystery")`},
	} {
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"analyze", path}, &out, &errb); code != 1 {
			t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("stderr missing %q:\n%s", tc.want, errb.String())
		}
	}
}

const sloScenario = `name: clislo
horizon_ms: 6
fleet:
  machines: 4
workload:
  stores: 2
  rf: 2
  objects: 48
  write_frac: 0.2
  tenants:
    - name: web
      rate: 60000
events:
  - at_ms: 2
    kind: crash
    machine: 1
  - at_ms: 4
    kind: restart
    machine: 1
slo:
  window_ms: 0.5
  windows: 3
  rules:
    - kind: goodput_below
      floor_rps: 30000
      for: 2
      severity: page
assertions:
  - metric: lost
    op: ==
    value: 0
`

// TestTopRendersWindowedSLOState: `qsctl top` must replay the scenario
// with window history retained and print the per-window table plus the
// incident banner, byte-identically across -par counts.
func TestTopRendersWindowedSLOState(t *testing.T) {
	path := writeScenario(t, sloScenario)
	var first string
	for _, par := range []string{"1", "4"} {
		var out, errb bytes.Buffer
		if code := run([]string{"top", path, "-par", par}, &out, &errb); code != 0 {
			t.Fatalf("-par %s: exit = %d (stderr: %s)", par, code, errb.String())
		}
		if first == "" {
			first = out.String()
			continue
		}
		if out.String() != first {
			t.Errorf("-par %s: top table differs from -par 1:\n%s", par, out.String())
		}
	}
	for _, want := range []string{"slo top: clislo", "goodput r/s", "p999 ms", "win"} {
		if !strings.Contains(first, want) {
			t.Errorf("top output missing %q:\n%s", want, first)
		}
	}
	// A scenario without an slo block has nothing to render.
	bare := writeScenario(t, testScenario)
	var out, errb bytes.Buffer
	if code := run([]string{"top", bare}, &out, &errb); code != 2 {
		t.Fatalf("no slo block: exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no slo block") {
		t.Errorf("stderr missing diagnostic:\n%s", errb.String())
	}
}

// TestRunFlightOut: -flight-out must write the flight recorder dump
// when an assertion fails, and skip it on a clean green run.
func TestRunFlightOut(t *testing.T) {
	failing := writeScenario(t, strings.Replace(testScenario, "    value: 100\n", "    value: 1000000000\n", 1))
	dump := filepath.Join(t.TempDir(), "flight.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"run", failing, "-flight-out", dump}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	if !strings.Contains(string(raw), "flight recorder:") {
		t.Errorf("dump missing header:\n%s", raw)
	}

	// Green run, no incidents: no dump.
	green := writeScenario(t, testScenario)
	dump2 := filepath.Join(t.TempDir(), "flight.txt")
	out.Reset()
	errb.Reset()
	if code := run([]string{"run", green, "-flight-out", dump2}, &out, &errb); code != 0 {
		t.Fatalf("green exit = %d (stderr: %s)", code, errb.String())
	}
	if _, err := os.Stat(dump2); !os.IsNotExist(err) {
		t.Errorf("green run wrote a flight dump (err=%v)", err)
	}

	// Passing run that opened an incident: the dump is still the
	// post-mortem artifact, so it must be written.
	slo := writeScenario(t, sloScenario)
	dump3 := filepath.Join(t.TempDir(), "flight.txt")
	out.Reset()
	errb.Reset()
	code := run([]string{"run", slo, "-flight-out", dump3}, &out, &errb)
	if code != 0 {
		t.Fatalf("slo run exit = %d (stderr: %s, stdout: %s)", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "incidents_opened") {
		t.Fatalf("report missing slo metrics:\n%s", out.String())
	}
	if strings.Contains(out.String(), "incidents_opened 0") {
		t.Skipf("scenario opened no incident at this seed; dump rule not exercised")
	}
	if _, err := os.ReadFile(dump3); err != nil {
		t.Errorf("incident run did not write flight dump: %v", err)
	}
}

// TestValidateReportsEveryFile: `qsctl validate` over a directory checks
// every *.yaml under it, recursively, and no file stops the sweep: the
// good ones get an ok line with name and description, the bad one its
// located error, and the exit status says a file was rejected.
func TestValidateReportsEveryFile(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for path, src := range map[string]string{
		filepath.Join(dir, "bad.yaml"):    "name: x\n\tboom\n",
		filepath.Join(dir, "good.yaml"):   testScenario,
		filepath.Join(sub, "nested.yaml"): "description: one level down\n" + sloScenario,
		filepath.Join(dir, "notes.txt"):   "not a scenario\n",
	} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"validate", dir}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	wantOut := "ok  " + filepath.Join(dir, "good.yaml") + "  clitest — \n" +
		"ok  " + filepath.Join(sub, "nested.yaml") + "  clislo — one level down\n"
	if out.String() != wantOut {
		t.Errorf("stdout = %q\nwant %q", out.String(), wantOut)
	}
	if got := errb.String(); !strings.HasPrefix(got, "qsctl: "+filepath.Join(dir, "bad.yaml")+": ") ||
		!strings.Contains(got, "line 2: tab in indentation") || strings.Count(got, "\n") != 1 {
		t.Errorf("stderr = %q\nwant one line locating the error in bad.yaml", got)
	}
	// A file named outright is checked whatever its extension.
	out.Reset()
	errb.Reset()
	if code := run([]string{"validate", filepath.Join(dir, "notes.txt")}, &out, &errb); code != 2 {
		t.Errorf("notes.txt: exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if code := run([]string{"validate"}, &out, &errb); code != 2 {
		t.Errorf("no arguments: exit = %d, want 2", code)
	}
}

// TestValidateUnreadablePathExits1: a path that cannot be read, or a
// directory holding no scenario, is exit 1 — and a rejected file beside
// it still makes the sweep exit 2.
func TestValidateUnreadablePathExits1(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(empty, "missing.yaml")
	for _, path := range []string{missing, empty} {
		var out, errb bytes.Buffer
		if code := run([]string{"validate", path}, &out, &errb); code != 1 {
			t.Errorf("%s: exit = %d, want 1", path, code)
		}
		if got := errb.String(); !strings.Contains(got, path) || strings.Count(got, "\n") != 1 || out.Len() != 0 {
			t.Errorf("%s: stderr %q, stdout %q; want one line naming the path", path, got, out.String())
		}
	}
	bad := writeScenario(t, "name: x\n\tboom\n")
	good := writeScenario(t, testScenario)
	var out, errb bytes.Buffer
	if code := run([]string{"validate", missing, bad, good}, &out, &errb); code != 2 {
		t.Errorf("missing + bad + good: exit = %d, want 2", code)
	}
	if strings.Count(errb.String(), "\n") != 2 || !strings.HasPrefix(out.String(), "ok  "+good+"  clitest") {
		t.Errorf("missing + bad + good: stderr %q, stdout %q; want every file reported", errb.String(), out.String())
	}
}

// TestValidateCommittedLibraries: every committed scenario file — the
// library and the benchmark's workloads, which this only reads — is ok.
func TestValidateCommittedLibraries(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"validate", "../../scenarios", "../../benchmark/workloads"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("stderr: %s", errb.String())
	}
	for _, want := range []string{
		"ok  ../../scenarios/flash-crowd.yaml  flash-crowd — 5x arrival spike",
		"ok  ../../benchmark/workloads/matrix/flash-crowd.yaml  flash-crowd — ",
		"ok  ../../benchmark/workloads/serve-write-rf2.yaml  serve-write-rf2 — ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "\n"); n != 26 {
		t.Errorf("%d files reported, want 12 scenarios + 12 matrix workloads + 2 serving workloads:\n%s", n, out.String())
	}
}

// TestOverBudgetAndBadDeadlineExit2: four files passed Parse and then
// took the process down — out of memory, or still running after 40 s —
// and a deadline no request can meet ran to RESULT PASS with goodput 0.
// Each is a usage error from `validate` and from `run`: exit 2 at once,
// one located line, no report.
func TestOverBudgetAndBadDeadlineExit2(t *testing.T) {
	workload := func(line string) string {
		return strings.Replace(testScenario, "  stores: 2\n", "  stores: 2\n  "+line+"\n", 1)
	}
	for _, tc := range []struct{ name, src, want string }{
		{"tenant rate", strings.Replace(testScenario, "rate: 60000", "rate: 1e11", 1),
			`scenario "clitest": the tenants offer up to 4e+08 requests over horizon_ms 4 (peak rate × spike mults × horizon; limit 25000000) — shrink a tenant's rate, a spike's mult or horizon_ms`},
		{"spike mult", testScenario + "events:\n  - at_ms: 1\n    kind: spike\n    tenant: web\n    mult: 1e9\n    ramp_ms: 0.5\n    decay_ms: 0.5\n",
			`scenario "clitest": the tenants offer up to 2.4e+11 requests over horizon_ms 4 (peak rate × spike mults × horizon; limit 25000000) — shrink a tenant's rate, a spike's mult or horizon_ms`},
		{"shards", strings.Replace(testScenario, "  machines: 3\n", "  machines: 3\n  shards: 100000\n", 1),
			`scenario "clitest": fleet.shards 100000 × fleet.machines 3 is 300000 machines (limit 100000) — shrink either`},
		{"servers", workload("servers: 10000000"),
			`scenario "clitest": workload.servers 10000000 is more than a shard can poll (limit 1000) — shrink it`},
		{"deadline 0", workload("deadline_us: 0"), `workload: field "deadline_us": must be positive (line 7)`},
		{"deadline -5", workload("deadline_us: -5"), `workload: field "deadline_us": must be positive (line 7)`},
	} {
		path := writeScenario(t, tc.src)
		for _, verb := range []string{"validate", "run"} {
			var out, errb bytes.Buffer
			start := time.Now()
			if code := run([]string{verb, path}, &out, &errb); code != 2 {
				t.Fatalf("%s %s: exit = %d, want 2 (stderr: %s)", verb, tc.name, code, errb.String())
			}
			if took := time.Since(start); took > time.Second {
				t.Errorf("%s %s: took %v to reject", verb, tc.name, took)
			}
			if got, want := errb.String(), "qsctl: "+path+": "+tc.want+"\n"; got != want {
				t.Errorf("%s %s: stderr = %q\nwant %q", verb, tc.name, got, want)
			}
			if out.Len() != 0 {
				t.Errorf("%s %s: a rejected file wrote to stdout:\n%s", verb, tc.name, out.String())
			}
		}
	}
}

// TestRunScenarioPreloadDoesNotFit: a preload larger than fleet.mem_mb
// passed Parse and then Run panicked out of its setup process with a
// goroutine dump. Where the placement arithmetic decides it, it is a
// usage error (exit 2); where only the run can tell — here a migration at
// t=0 doubles up two stores — Run fails with exit 1. Either way: one
// located line, no stack trace, no report.
func TestRunScenarioPreloadDoesNotFit(t *testing.T) {
	tight := strings.Replace(testScenario, "  machines: 3\n", "  machines: 3\n  mem_mb: 1\n", 1)
	withBytes := func(n string) string {
		return strings.Replace(tight, "  objects: 48\n", "  objects: 48\n  object_bytes: "+n+"\n", 1)
	}
	for _, tc := range []struct {
		name, src string
		code      int
		want      string
	}{
		{"rejected by Parse", withBytes("30000"), 2,
			`scenario "clitest": the preload does not fit: fleet.mem_mb 1 leaves 21845 bytes an object on the machine holding 1 × 48 of them (stores × objects), and object_bytes 30000 + 64 of overhead is more — raise fleet.mem_mb or shrink workload.objects × object_bytes`},
		{"found by Run", withBytes("12000") + "events:\n  - at_ms: 0\n    kind: migrate\n    store: 0\n    to: 2\n", 1,
			`scenario "clitest": shard 0: preload of store 1 (48 objects of 12000 bytes): cluster: out of memory: machine 2: 579072 requested, 469504 free: raise fleet.mem_mb or shrink workload.objects × object_bytes`},
	} {
		path := writeScenario(t, tc.src)
		var out, errb bytes.Buffer
		if code := run([]string{"run", path}, &out, &errb); code != tc.code {
			t.Fatalf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.code, errb.String())
		}
		got := errb.String()
		if !strings.Contains(got, tc.want) || strings.Contains(got, "panic") || strings.Contains(got, "goroutine") || strings.Count(got, "\n") != 1 {
			t.Errorf("%s: stderr = %q\nwant one line with the diagnostic %q and no stack trace", tc.name, got, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a failed preload printed a report:\n%s", tc.name, out.String())
		}
	}
}
