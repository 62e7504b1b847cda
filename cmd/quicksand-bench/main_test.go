package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

// TestWriteBenchJSON round-trips a stats record through the BENCH file.
func TestWriteBenchJSON(t *testing.T) {
	dir := t.TempDir()
	st := benchStats{ID: "fig1", Events: 1234567, Allocs: 89_000,
		Values: map[string]float64{"lost_rf2": 0, "failover_ms_mean": 3.14}}
	path, err := writeBenchJSON(dir, st)
	if err != nil {
		t.Fatalf("writeBenchJSON: %v", err)
	}
	if want := filepath.Join(dir, "BENCH_fig1.json"); path != want {
		t.Errorf("path = %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var got benchStats
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.ID != st.ID || got.Events != st.Events || got.Allocs != st.Allocs {
		t.Errorf("round trip = %+v, want %+v", got, st)
	}
	if len(got.Values) != len(st.Values) {
		t.Fatalf("values round trip = %v, want %v", got.Values, st.Values)
	}
	for k, v := range st.Values {
		if got.Values[k] != v {
			t.Errorf("values[%q] = %v, want %v", k, got.Values[k], v)
		}
	}
	if data[len(data)-1] != '\n' {
		t.Error("BENCH file must end with a newline")
	}
}

// TestWriteBenchJSONBadDir: write failures surface as errors, not
// silent drops.
func TestWriteBenchJSONBadDir(t *testing.T) {
	if _, err := writeBenchJSON(filepath.Join(t.TempDir(), "missing"), benchStats{ID: "x"}); err == nil {
		t.Fatal("expected error writing into a missing directory")
	}
}

// TestBenchStatsFromExperiment: a real (test-scale) experiment yields a
// populated events count for the JSON record.
// TestWriteBenchJSONNonFinite: a NaN or infinite value is refused by
// key, the first by name, which run reports under the experiment's id,
// and no file is left behind.
func TestWriteBenchJSONNonFinite(t *testing.T) {
	dir := t.TempDir()
	st := benchStats{ID: "ext-chaos", Values: map[string]float64{
		"ops": 12, "recovered_frac": math.NaN(), "dip_frac": math.Inf(1)}}
	_, err := writeBenchJSON(dir, st)
	if want := "value dip_frac is +Inf, which JSON cannot hold"; err == nil || err.Error() != want {
		t.Fatalf("writeBenchJSON error = %v, want %q", err, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_ext-chaos.json")); !os.IsNotExist(err) {
		t.Errorf("a refused record left a file (stat: %v)", err)
	}
}

func TestBenchStatsFromExperiment(t *testing.T) {
	res, err := experiments.Run("fig1", experiments.TestScale)
	if err != nil {
		t.Fatalf("fig1: %v", err)
	}
	if res.EventsProcessed == 0 {
		t.Error("fig1 reported 0 events processed; BENCH json would be empty")
	}
	if _, err := writeBenchJSON(t.TempDir(), benchStats{ID: res.ID, Events: res.EventsProcessed}); err != nil {
		t.Fatalf("writeBenchJSON: %v", err)
	}
}

// TestCPUProfileSurvivesAFailedRun: a run that exits 1 (here, an unknown
// experiment after a good one) still writes a complete CPU profile. The
// profile is a gzip stream, so a file the process left unstopped is
// empty and fails to open as one.
func TestCPUProfileSurvivesAFailedRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run([]string{"-scale", "test", "-cpuprofile", path, "fig1", "nosuch"}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream: %v", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil || len(body) == 0 {
		t.Fatalf("profile body: %d bytes, err %v", len(body), err)
	}
}

// TestJSONRunsExperimentsOneAtATime: each BENCH record's allocs are a
// process-wide delta, so with -json the experiments must not overlap,
// whatever -par says. Back-to-back runs' allocations fit inside the
// whole run's; overlapping ones count each other's and add up to more.
func TestJSONRunsExperimentsOneAtATime(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	ids := []string{"fig1", "fig2", "abl-sched"}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if code := run(append([]string{"-scale", "test", "-par", "2", "-json"}, ids...), io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	runtime.ReadMemStats(&m1)
	total := m1.Mallocs - m0.Mallocs
	var sum uint64
	for _, id := range ids {
		data, err := os.ReadFile("BENCH_" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var st benchStats
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		sum += st.Allocs
	}
	if sum > total {
		t.Errorf("records add up to %d of the run's %d allocations: the experiments overlapped", sum, total)
	}
}

// TestJSONRecordIgnoresRunOrder: -json empties the run memo before each
// experiment, so fig1's record counts fig1's own runs even when
// abl-sched, which shares fig1's quicksand run, went first. Its events
// match a run of fig1 alone exactly, and its allocations within
// benchdiff's 10%.
func TestJSONRecordIgnoresRunOrder(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	record := func(ids ...string) benchStats {
		if err := os.Chdir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		if code := run(append([]string{"-scale", "test", "-json"}, ids...), io.Discard, io.Discard); code != 0 {
			t.Fatalf("%v: exit code %d", ids, code)
		}
		data, err := os.ReadFile("BENCH_fig1.json")
		if err != nil {
			t.Fatal(err)
		}
		var st benchStats
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	alone, after := record("fig1"), record("abl-sched", "fig1")
	if after.Events != alone.Events {
		t.Errorf("fig1 after abl-sched: %d events, alone %d", after.Events, alone.Events)
	}
	if d := math.Abs(float64(after.Allocs) - float64(alone.Allocs)); d > 0.1*float64(alone.Allocs) {
		t.Errorf("fig1 after abl-sched: %d allocs, alone %d: more than 10%% apart", after.Allocs, alone.Allocs)
	}
}
