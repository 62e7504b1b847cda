package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestScenarioList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	for _, sc := range scenarios {
		if !strings.Contains(out.String(), sc.name) {
			t.Errorf("list output missing scenario %q:\n%s", sc.name, out.String())
		}
	}
}

func TestUnknownScenarioListsAndExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown scenario "nope"`) {
		t.Errorf("stderr missing unknown-scenario message:\n%s", msg)
	}
	for _, sc := range scenarios {
		if !strings.Contains(msg, sc.name) {
			t.Errorf("stderr missing valid scenario %q:\n%s", sc.name, msg)
		}
	}
}

// TestChurnTraceCausality is the acceptance check: a churn run with
// tracing enabled must contain at least one migration span that is a
// descendant of a pressure span.
func TestChurnTraceCausality(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "churn", "-horizon-ms", "60", "-trace-out", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	f, err := os.Open(path)
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
		for p := r.Parent; p != 0; {
			pr, ok := byID[p]
			if !ok {
				break
			}
			if pr.Kind == obs.KindPressure {
				caused++
				break
			}
			p = pr.Parent
		}
	}
	if caused == 0 {
		t.Fatal("no migration span descends from a pressure span")
	}
}

// TestServeScenarioReportsTail runs the open-loop serving scenario and
// checks the operator summary: both tenants generated load, every
// generated request that was served shows up in the histogram, and the
// latency line carries the p50/p99/p999 tail quantiles.
func TestServeScenarioReportsTail(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "serve", "-horizon-ms", "30"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	rep := out.String()
	for _, want := range []string{"serving plane", "web", "batch", "goodput",
		"p50=", "p99=", "p999=", "timeouts"} {
		if !strings.Contains(rep, want) {
			t.Errorf("serve output missing %q:\n%s", want, rep)
		}
	}
	// Same flags, same seed: the run is deterministic, so a second
	// invocation must print byte-identical serving stats.
	var out2, errb2 bytes.Buffer
	if code := run([]string{"-scenario", "serve", "-horizon-ms", "30"}, &out2, &errb2); code != 0 {
		t.Fatalf("second run exit = %d (stderr: %s)", code, errb2.String())
	}
	if out.String() != out2.String() {
		t.Error("serve scenario output differs between identical runs")
	}
	// The servers' empty-queue poll moved from a Sleep loop to SleepWhile,
	// which is event-for-event the same wait: the stats and the kernel's
	// event count are those of the Sleep loop.
	for _, want := range []string{
		"generated 1467, served 1467, timeouts 0 (deadline 1ms), goodput 48900 req/s",
		"serve.latency: n=1467 mean=0.010ms p50=0.009ms p99=0.025ms p999=0.029ms max=0.030ms",
		`scenario "serve" ran to 30ms (17609 events)`,
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("serve output no longer has %q:\n%s", want, rep)
		}
	}
}

func TestAnalyzeReportsMethodPercentiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "churn", "-horizon-ms", "40", "-trace-out", path}, &out, &errb); code != 0 {
		t.Fatalf("scenario exit = %d (stderr: %s)", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"analyze", path}, &out, &errb); code != 0 {
		t.Fatalf("analyze exit = %d (stderr: %s)", code, errb.String())
	}
	rep := out.String()
	for _, want := range []string{"call latency by method", "p50", "p99", "slowest migrations", "per-machine utilization"} {
		if !strings.Contains(rep, want) {
			t.Errorf("analyze output missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(rep, "rpc") {
		t.Errorf("analyze output has no rpc method rows:\n%s", rep)
	}
}

func TestChromeTraceExportIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "filler", "-horizon-ms", "30", "-trace-out", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected trace shape: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
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

// TestAnalyzeMalformedJSONLExits1: a corrupt line in the record stream
// must fail the whole analysis with the offending line number, not be
// silently skipped.
func TestAnalyzeMalformedJSONLExits1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	src := `{"type":"span","id":1,"kind":"rpc","name":"a","start_ns":0,"end_ns":10}
{"type":"span","id":2,"kind":"rpc","name":"b","start_ns":0,"end_ns":10}
{"type":"span","id":3,"kind":"rpc","na
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"analyze", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "line 3") {
		t.Errorf("stderr missing offending line number:\n%s", errb.String())
	}

	// An unknown record type is just as fatal: the stream contract is
	// span|sample, and anything else means a producer/consumer skew.
	if err := os.WriteFile(path, []byte(`{"type":"mystery"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"analyze", path}, &out, &errb); code != 1 {
		t.Fatalf("unknown type: exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "line 1") || !strings.Contains(errb.String(), "mystery") {
		t.Errorf("stderr missing diagnostic:\n%s", errb.String())
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

// TestScenarioListIncludesFiles: `-scenario list` must enumerate the
// scenario-file library alongside the built-ins, flagging bad files
// inline rather than erroring out.
func TestScenarioListIncludesFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good.yaml"), []byte(testScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.yaml"), []byte("name: x\n\tboom\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "list", "-scenario-dir", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"good.yaml", "bad.yaml", "(parse error:", "filler"} {
		if !strings.Contains(s, want) {
			t.Errorf("list output missing %q:\n%s", want, s)
		}
	}
}

// TestCannedGoldens compares the serve and replicas runs with
// testdata/*.golden, the stdout of the same commands at 677053b — the
// commit before the canned runs moved onto load.Queue and
// fleet.PlaceStores, which promised to move nothing.
// QSCTL_UPDATE_GOLDENS=1 go test -run CannedGoldens rewrites the files,
// which only makes sense when a change means to move the output.
func TestCannedGoldens(t *testing.T) {
	for path, args := range map[string][]string{
		"testdata/serve_events.golden": {"-scenario", "serve", "-events"},
		"testdata/replicas.golden":     {"-scenario", "replicas"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit = %d (stderr: %s)", args, code, errb.String())
		}
		if os.Getenv("QSCTL_UPDATE_GOLDENS") != "" {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output differs from %s\n--- got\n%s--- want\n%s", args, path, out.Bytes(), want)
		}
	}
}

// TestHorizonBelowOneMsIsAUsageError: a canned run places its events at
// fractions of the horizon, so none can run with less than 1 ms
// (-scenario serve -horizon-ms 0 used to panic in load.Sampled, and a
// negative horizon ran nothing and reported success).
func TestHorizonBelowOneMsIsAUsageError(t *testing.T) {
	for _, sc := range scenarios {
		for _, ms := range []string{"0", "-5"} {
			var out, errb bytes.Buffer
			if code := run([]string{"-scenario", sc.name, "-horizon-ms", ms}, &out, &errb); code != 2 {
				t.Errorf("%s -horizon-ms %s: exit = %d, want 2", sc.name, ms, code)
			}
			msg := errb.String()
			if !strings.Contains(msg, "-horizon-ms "+ms) || strings.Count(msg, "\n") != 1 {
				t.Errorf("%s -horizon-ms %s: stderr is not a one-line usage error: %q", sc.name, ms, msg)
			}
			if out.Len() != 0 {
				t.Errorf("%s -horizon-ms %s: wrote to stdout: %q", sc.name, ms, out.String())
			}
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-scenario", "serve", "-horizon-ms", "1"}, &out, &errb); code != 0 {
		t.Errorf("-horizon-ms 1: exit = %d, want 0 (stderr: %s)", code, errb.String())
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
