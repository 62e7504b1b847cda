package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The untraced pass starts this binary again for every rep; when that
// binary is the test binary, TestMain plays the rep child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--child-rep" {
		os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every embedded scenario parses and, cut to a 2 ms horizon, runs clean
// at seed 1: no lost write, requests generated, every request served.
func TestWorkloadFilesParseAndPassCut(t *testing.T) {
	var files []string
	err := fs.WalkDir(workloadFS, "workloads", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".yaml") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 14 {
		t.Fatalf("embedded %d scenario files, want 2 serve workloads + 12 matrix cells", len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			t.Parallel()
			e := &env{seed: 1, scale: scales["smoke"], workers: simWorkers}
			sp, err := parse(e, file)
			if err != nil {
				t.Fatal(err)
			}
			if sp.HorizonMS != 2 || len(sp.Events) != 0 {
				t.Fatalf("smoke scale left horizon %g ms and %d events", sp.HorizonMS, len(sp.Events))
			}
			out, ok, err := runScenario(e, sp, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("checks failed: pass=%v metrics=%v", out.Pass, out.Metrics)
			}
		})
	}
}

// A smoke-scale run of every workload, untraced and traced, reports
// exactly the metric names BENCHMARK.json declares, with no failure, and
// the traced pass leaves a loadable Chrome trace with parent links.
func TestSmokeRunsReportDeclaredMetrics(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, wl := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: wl.Name, seed: 1, budget: 50 * time.Millisecond, trace: trace, scale: scales["smoke"], traceDir: dir}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, def := range want {
				m, ok := res.Metrics[def.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, def.Name)
					continue
				}
				if m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v %s, want a finite value in %s", wl.Name, def.Name, m.Value, m.Unit, def.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, def.Name, m.Value)
				}
			}
		}
		checkChromeTrace(t, filepath.Join(dir, "trace-"+wl.Name+".json"), wl.Name)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("smoke runs took %v, want under 10s", d)
	}
}

func checkChromeTrace(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct {
				ID, Parent int
				Workload   string
			}
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	ids := map[int]bool{0: true}
	names := map[string]bool{}
	children := 0
	for _, ev := range doc.TraceEvents {
		ids[ev.Args.ID] = true
		names[strings.SplitN(ev.Name, ":", 2)[0]] = true
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Args.Workload != workload || !ids[ev.Args.Parent] {
			t.Fatalf("%s: bad event %+v", path, ev)
		}
		if ev.Args.Parent != 0 {
			children++
		}
	}
	if children == 0 || !names["setup"] || !names["rep"] || !names["probe"] {
		t.Errorf("%s: %d child spans, span kinds %v; want setup, rep and probe spans with children", path, children, names)
	}
}

// The command line the driver uses: flags with values, a report, and one
// JSON object with exactly four keys as the last line.
func TestCLIPrintsResultLast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := cli([]string{"--workload", "scenario-matrix", "--seed", "3", "--seconds", "1", "--trace", "0",
		"--scale", "smoke"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want 4", len(last))
	}
	if !strings.HasPrefix(lines[0], "host num_cpu ") {
		t.Errorf("first line %q does not record the host", lines[0])
	}
	for _, bad := range [][]string{{"--workload", "nope"}, {"--seconds", "0"}, {"--trace", "2"}, {"--scale", "huge"}, {"--compare", "one.json"}} {
		if code := cli(bad, io.Discard, io.Discard); code == 0 {
			t.Errorf("cli(%v) = 0, want a failure", bad)
		}
	}
}

// BENCHMARK.json names what defs.go names, within the driver's limits.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadDef
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 || doc.RunSeconds < 1 || doc.RunSeconds > 60 || !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("size %d, run_seconds %d, paths %v out of contract", len(data), doc.RunSeconds, doc.Paths)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadDefs) {
		t.Errorf("workloads differ from defs.go:\n%v\n%v", doc.Workloads, workloadDefs)
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in defs.go, limit %d", kind, len(got), len(want), limit)
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: %+v in BENCHMARK.json, %+v in defs.go", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s[%d]: name %q or unit %q breaks the contract", kind, i, g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s[%d]: better = %q", kind, i, g.Better)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s[%d] %s: bound presence wrong", kind, i, g.Name)
			} else if bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s[%d] %s: bound %v in BENCHMARK.json, %v in defs.go", kind, i, g.Name, *g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true, 16)
	check("per_layer", doc.PerLayer, perLayer, false, 128)
	setup := defOf(endToEnd, "setup_s")
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a wider bound than setup_s", d.Name)
		}
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || newWorkload(w.Name) == nil {
			t.Errorf("workload %q: bad name, why longer than 200 characters, or no implementation", w.Name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2, 10, 5], n=4) == [1.5, 3.0, 7.5]; ([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, med, q3 := quartiles([]float64{3, 1, 2, 10, 5}); q1 != 1.5 || med != 3 || q3 != 7.5 {
		t.Errorf("quartiles(3,1,2,10,5) = %v %v %v", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, med, q3)
	}
	if s := spread([]float64{10, 10, 10, 10}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
}

// The meter reports the time between begin and end less its own
// calibrations, scales it by the calibrations beside it, leaves short
// segments open, and charges the kernel's allocations to nobody.
func TestMeterScalesByCalibration(t *testing.T) {
	m := &meter{ops: calibOps / 100}
	m.begin()
	start := time.Now()
	time.Sleep(20 * time.Millisecond)
	m.lap() // shorter than minSegmentS: stays open
	got := m.end()
	outer := time.Since(start).Seconds()
	if got.segments != 1 || got.raw < 0.02 || got.raw > outer {
		t.Fatalf("segments %d raw %v s, want one segment of 0.02 s to %v s", got.segments, got.raw, outer)
	}
	if want := got.raw * calibRefS / got.calib; math.Abs(got.norm-want) > 1e-9*want {
		t.Errorf("norm %v, want raw*calibRefS/calib = %v", got.norm, want)
	}
	if got.mallocs > 50 {
		t.Errorf("a sleeping segment allocated %v objects: the calibration kernel's are being counted", got.mallocs)
	}
	var nilMeter *meter
	nilMeter.lap() // the traced pass runs without a meter
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := []float64{0.7, 0.8, 1.0, 1.0, 1.2, 1.3}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(1), steady(1), verdictOK},
		{"within bound", lower, steady(1), steady(1.09), verdictOK},
		{"slower", lower, steady(1), steady(1.12), verdictWorse},
		{"faster", lower, steady(1), steady(0.5), verdictOK},
		{"noisy base", lower, noisy, steady(1), verdictUnresolved},
		{"noisy and slower", lower, noisy, steady(1.5), verdictWorse},
		{"higher is better, dropped", higher, steady(1), steady(0.85), verdictWorse},
		{"higher is better, rose", higher, steady(1), steady(1.5), verdictOK},
	}
	for _, c := range cases {
		if _, _, got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsExitCodes(t *testing.T) {
	set := func(wall float64, events float64) setFile {
		var s setFile
		for seed := int64(1); seed <= 4; seed++ {
			rec := runRecord{Workload: "serve-read", Seed: seed}
			rec.Correct, rec.Attempted = true, 1
			rec.Metrics = map[string]metricValue{}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = metricValue{wall * (1 + float64(seed)/1000), d.Unit}
			}
			s.Runs = append(s.Runs, rec)
		}
		traced := runRecord{Workload: "serve-read", Seed: 1, Trace: 1}
		traced.Correct = true
		traced.Metrics = map[string]metricValue{"sim.events": {events, "count"}}
		s.Runs = append(s.Runs, traced)
		return s
	}
	var out bytes.Buffer
	if code := writeComparison(&out, set(1, 100), set(1.01, 100)); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 differ") || strings.Contains(out.String(), verdictWorse) {
		t.Errorf("equal sets: report\n%s", out.String())
	}
	out.Reset()
	if code := writeComparison(&out, set(1, 100), set(1.5, 100)); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("slower set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := writeComparison(&out, set(1, 100), set(1, 101)); code != 1 || !strings.Contains(out.String(), "exact value differs") {
		t.Errorf("drifted counter: exit %d\n%s", code, out.String())
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	data, _ := json.Marshal(set(1, 100))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareSets(path, path, io.Discard, io.Discard); code != 0 {
		t.Errorf("a set against itself: exit %d", code)
	}
	if code := compareSets(path, filepath.Join(dir, "missing.json"), io.Discard, io.Discard); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

// pb is a hand-rolled protobuf encoder for the canned profile.
type pb struct{ bytes.Buffer }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pb) uint(field int, v uint64) { p.varint(uint64(field)<<3 | 0); p.varint(v) }
func (p *pb) bytesField(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

// cannedProfile encodes stacks (leaf first) of function names with
// weights as a gzipped pprof profile: one location and one function per
// distinct name, sample values [1, weight], location ids packed.
func cannedProfile(stacks [][]string, weights []uint64) []byte {
	strs := []string{""}
	fnID := map[string]uint64{}
	var prof pb
	for i, stack := range stacks {
		var locs, vals, sample pb
		for _, fn := range stack {
			if fnID[fn] == 0 {
				strs = append(strs, fn)
				fnID[fn] = uint64(len(strs) - 1)
			}
			locs.varint(fnID[fn])
		}
		vals.varint(1)
		vals.varint(weights[i])
		sample.bytesField(1, locs.Bytes())
		sample.bytesField(2, vals.Bytes())
		prof.bytesField(2, sample.Bytes())
	}
	for _, id := range fnID {
		var line, loc, fn pb
		line.uint(1, id)
		line.uint(2, 42)
		loc.uint(1, id)
		loc.uint(3, 0xdeadbeef)
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())
		fn.uint(1, id)
		fn.uint(2, id)
		prof.bytesField(5, fn.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestCPUShareOfCannedProfile(t *testing.T) {
	profile := cannedProfile([][]string{
		{"repro/internal/sim.(*Kernel).Step", "repro/internal/sim.(*Kernel).Run", "main.main"},
		{"runtime.mapaccess2_fast64", "repro/internal/core.(*MemoryProclet).applyPut", "repro/internal/sim.(*Kernel).Step"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "repro/internal/load.(*Injector).runBatch"},
		{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"},
		{"internal/runtime/atomic.(*Uint32).Load", "runtime.chanrecv", "repro/internal/sim.(*Proc).park"},
		{"math/rand.(*Rand).Float64", "repro/internal/load.(*Arrivals).Draw"},
		{"repro/internal/sharded.(*Map[go.shape.int,go.shape.int]).Put", "main.probeMapPut.func1"},
		{"repro/internal/obs/slo.(*Monitor).Observe", "repro/internal/scenario.Run.func4"},
		{"repro/internal/trace.(*Log).Emit", "repro/internal/core.(*System).Start"},
		{"crypto/sha256.block", "main.runFigs"},
	}, []uint64{30, 10, 10, 10, 10, 10, 5, 5, 4, 3, 3})
	samples, err := readProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	got := cpuShareOf(samples)
	want := map[string]float64{
		"sim": 0.30, "core": 0.10, "runtime_gc": 0.10, "runtime_malloc": 0.10, "runtime_sched": 0.20,
		"load": 0.05, "sharded": 0.05, "obs": 0.04, "other": 0.06,
	}
	for bucket, w := range want {
		if math.Abs(got[bucket]-w) > 1e-9 {
			t.Errorf("cpu_share.%s = %v, want %v", bucket, got[bucket], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	if _, err := readProfile(profile[:len(profile)/2]); err == nil {
		t.Error("truncated profile read without error")
	}
	if pkg := packageOf("repro/internal/sharded.(*Map[go.shape.int,go.shape.int]).Put"); pkg != "repro/internal/sharded" {
		t.Errorf("packageOf generic method = %q", pkg)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	var none *tracer
	none.span("ignored")() // a nil tracer records nothing and does not panic

	tr := newTracer("w")
	outer := tr.span("outer")
	inner := tr.span("inner")
	time.Sleep(2 * time.Millisecond)
	inner()
	tr.span("inner")()
	outer()
	totals := map[string]spanTotal{}
	for _, st := range tr.selfTimes() {
		totals[st.name] = st
	}
	in, out := totals["inner"], totals["outer"]
	if in.count != 2 || out.count != 1 || in.self != in.total || out.self != out.total-in.total || out.total < in.total {
		t.Errorf("inner %+v outer %+v", in, out)
	}
	if tr.spans[1].parent != tr.spans[0].id || tr.spans[2].parent != tr.spans[0].id || tr.spans[0].parent != 0 {
		t.Errorf("parent links %+v", tr.spans)
	}
}
