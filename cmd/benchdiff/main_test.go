package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	base := benchStats{ID: "fig1", Events: 1000, Allocs: 500}
	cases := []struct {
		name  string
		cand  benchStats
		tol   float64
		fails int
	}{
		{"identical", benchStats{Events: 1000, Allocs: 500}, 0.10, 0},
		{"within tolerance", benchStats{Events: 1000, Allocs: 540}, 0.10, 0},
		{"events regress high", benchStats{Events: 1200, Allocs: 500}, 0.10, 1},
		{"events regress low", benchStats{Events: 800, Allocs: 500}, 0.10, 1},
		{"one event of drift fails", benchStats{Events: 1001, Allocs: 500}, 0.10, 1},
		{"allocs regress", benchStats{Events: 1000, Allocs: 600}, 0.10, 1},
		{"allocs improve passes", benchStats{Events: 1000, Allocs: 460}, 0.10, 0},
		{"allocs fall past the tolerance fails", benchStats{Events: 1000, Allocs: 100}, 0.10, 1},
		{"just inside the tolerance above", benchStats{Events: 1000, Allocs: 549}, 0.10, 0},
		{"just outside the tolerance above", benchStats{Events: 1000, Allocs: 551}, 0.10, 1},
		{"exactly at the tolerance below", benchStats{Events: 1000, Allocs: 450}, 0.10, 0},
		{"just inside the tolerance below", benchStats{Events: 1000, Allocs: 451}, 0.10, 0},
		{"just outside the tolerance below", benchStats{Events: 1000, Allocs: 449}, 0.10, 1},
		{"events drift and allocs fall", benchStats{Events: 999, Allocs: 300}, 0.10, 2},
		{"both regress", benchStats{Events: 2000, Allocs: 2000}, 0.10, 2},
		{"exactly at tolerance", benchStats{Events: 1000, Allocs: 550}, 0.10, 0},
		{"tighter tol catches drift", benchStats{Events: 1000, Allocs: 510}, 0.01, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := compare(base, tc.cand, tc.tol)
			if len(fails) != tc.fails {
				t.Fatalf("compare(%+v) = %d failures %v, want %d",
					tc.cand, len(fails), fails, tc.fails)
			}
		})
	}
	// A fall past the tolerance says how to take the gain into the record.
	fails := compare(base, benchStats{Events: 1000, Allocs: 100}, 0.10)
	if want := "re-record BENCH_fig1.json (quicksand-bench -json -par 1 fig1)"; len(fails) != 1 || !strings.Contains(fails[0], want) {
		t.Errorf("a fall past the tolerance reads %q, want it to say %q", fails, want)
	}
}

func TestRelDelta(t *testing.T) {
	cases := []struct {
		base, cand uint64
		want       float64
	}{
		{100, 110, 0.10},
		{100, 90, -0.10},
		{100, 100, 0},
		{0, 0, 0},
		{0, 5, 1},
	}
	for _, tc := range cases {
		got := relDelta(tc.base, tc.cand)
		diff := got - tc.want
		if diff < -1e-12 || diff > 1e-12 {
			t.Errorf("relDelta(%d, %d) = %v, want %v", tc.base, tc.cand, got, tc.want)
		}
	}
}

// edited returns a copy of vals with edits applied and drop removed.
func edited(vals, edits map[string]float64, drop ...string) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range vals {
		out[k] = v
	}
	for k, v := range edits {
		out[k] = v
	}
	for _, k := range drop {
		delete(out, k)
	}
	return out
}

func TestCompareValues(t *testing.T) {
	// A record shaped like BENCH_ext-failover.json: durability counters,
	// failover latency and an op count, plus a wall_ key, which gates
	// like any other.
	base := benchStats{
		ID: "ext-failover", Events: 1000, Allocs: 500,
		Values: map[string]float64{
			"lost_rf2":         0,
			"lost_rf1":         1372,
			"failover_ms_mean": 3.14,
			"failover_ms_max":  3.27,
			"ops_rf2":          12262,
			"wall_ms_rf2":      950,
		},
	}
	cases := []struct {
		name  string
		edits map[string]float64
		drop  string
		fails int
	}{
		{"identical", nil, "", 0},
		{"data loss appears", map[string]float64{"lost_rf2": 3}, "", 1},
		{"rf1 loss shrinking is drift", map[string]float64{"lost_rf1": 900}, "", 1},
		{"failover latency drift fails", map[string]float64{"failover_ms_mean": 3.3, "failover_ms_max": 3.4}, "", 2},
		{"failover latency regresses", map[string]float64{"failover_ms_mean": 9.9}, "", 1},
		{"failover latency too-good is still drift", map[string]float64{"failover_ms_mean": 0.1}, "", 1},
		{"op count drift fails", map[string]float64{"ops_rf2": 12263}, "", 1},
		{"a changed key fails, whatever its name", map[string]float64{"wall_ms_rf2": 1}, "", 1},
		{"a missing key fails, whatever its name", nil, "wall_ms_rf2", 1},
		{"gated key vanished from candidate", nil, "failover_ms_max", 1},
		{"new candidate keys pass", map[string]float64{"windows": 7}, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand := benchStats{Events: 1000, Allocs: 500, Values: edited(base.Values, tc.edits, tc.drop)}
			fails := compare(base, cand, 0.10)
			if len(fails) != tc.fails {
				t.Fatalf("compare = %d failures %v, want %d", len(fails), fails, tc.fails)
			}
		})
	}
	t.Run("candidate without values loses every gated key", func(t *testing.T) {
		if fails := compare(base, benchStats{Events: 1000, Allocs: 500}, 0.10); len(fails) != 6 {
			t.Fatalf("compare = %d failures %v, want 6", len(fails), fails)
		}
	})
	// Old baseline without values must not gate a candidate that has them.
	if fails := compare(benchStats{Events: 1000, Allocs: 500},
		benchStats{Events: 1000, Allocs: 500, Values: map[string]float64{"lost_rf2": 5}}, 0.10); len(fails) != 0 {
		t.Fatalf("baseline without values gated candidate: %v", fails)
	}
}

func TestCompareServingValues(t *testing.T) {
	// A record shaped like BENCH_ext-serve.json: goodput, overall and
	// per-phase tail quantiles, plus two wall_ keys, which gate like any
	// other.
	base := benchStats{
		ID: "ext-serve", Events: 1000, Allocs: 500,
		Values: map[string]float64{
			"goodput_rps":     3_700_000,
			"p999_ms":         0.110,
			"p999_ms_migrate": 0.227,
			"p50_ms":          0.012,
			"wall_ms_p8":      950,
			"wall_speedup_p8": 3.1,
			"events":          123456,
		},
	}
	cases := []struct {
		name   string
		edits  map[string]float64
		drop   string
		allocs uint64
		fails  int
	}{
		{"identical", nil, "", 500, 0},
		{"within tolerance", nil, "", 540, 0},
		{"small drift fails", map[string]float64{"goodput_rps": 3_500_000, "p999_ms": 0.115, "p999_ms_migrate": 0.23}, "", 500, 3},
		{"goodput collapses", map[string]float64{"goodput_rps": 2_000_000}, "", 500, 1},
		{"goodput too-good is still drift", map[string]float64{"goodput_rps": 9_000_000}, "", 500, 1},
		{"tail regresses", map[string]float64{"p999_ms": 0.5}, "", 500, 1},
		{"migration-phase tail regresses", map[string]float64{"p999_ms_migrate": 0.9}, "", 500, 1},
		{"a changed or missing key fails, whatever its name", map[string]float64{"wall_ms_p8": 1}, "wall_speedup_p8", 500, 2},
		{"p50 and event drift gate", map[string]float64{"p50_ms": 9.9, "events": 1}, "", 500, 2},
		{"gated serving key vanished", nil, "p999_ms_migrate", 500, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cand := benchStats{Events: 1000, Allocs: tc.allocs, Values: edited(base.Values, tc.edits, tc.drop)}
			fails := compare(base, cand, 0.10)
			if len(fails) != tc.fails {
				t.Fatalf("compare = %d failures %v, want %d", len(fails), fails, tc.fails)
			}
		})
	}
}

func TestReadStatsFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Missing baseline: the error must say how to record one, with flags
	// quicksand-bench has — it writes records to the working directory.
	_, err := readStats(dir, "ext-scale")
	if want := "`cd " + dir + " && quicksand-bench -json -par 1 ext-scale`"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("missing record error = %v, want the hint %s", err, want)
	}

	// Malformed JSON still reports the path.
	write("BENCH_broken.json", "{not json")
	if _, err := readStats(dir, "broken"); err == nil || !strings.Contains(err.Error(), "BENCH_broken.json") {
		t.Errorf("malformed record error = %v, want the file path", err)
	}

	// A record with zero events is malformed (every real run has events).
	write("BENCH_empty.json", `{"id":"empty","events_processed":0,"allocs":0}`)
	if _, err := readStats(dir, "empty"); err == nil || !strings.Contains(err.Error(), "events_processed") {
		t.Errorf("zero-events record error = %v, want an events_processed complaint", err)
	}

	// Embedded id must match the requested experiment.
	write("BENCH_fig1.json", `{"id":"fig2","events_processed":10,"allocs":1}`)
	if _, err := readStats(dir, "fig1"); err == nil || !strings.Contains(err.Error(), `"fig2"`) {
		t.Errorf("mismatched id error = %v, want the stale id named", err)
	}

	// A record without an id names no experiment, so it passes for none.
	write("BENCH_fig3.json", `{"events_processed":10,"allocs":1}`)
	if _, err := readStats(dir, "fig3"); err == nil || !strings.Contains(err.Error(), `records experiment "", not "fig3"`) {
		t.Errorf("missing id error = %v, want the record rejected as stale", err)
	}

	// A good record round-trips.
	write("BENCH_ok.json", `{"id":"ok","events_processed":10,"allocs":1,"values":{"ops":5}}`)
	st, err := readStats(dir, "ok")
	if err != nil {
		t.Fatalf("valid record: %v", err)
	}
	if st.Events != 10 || st.Values["ops"] != 5 {
		t.Errorf("valid record parsed as %+v", st)
	}
}

// FuzzBenchRecord is the input-boundary contract of the records benchdiff
// reads: any bytes either decode to a record with events, which compares
// clean against itself, or fail with an error that says where — the byte
// the JSON broke at, or the field that is wrong — and never panic. The
// seeds in testdata/fuzz are the committed BENCH_*.json records and the
// malformed records TestReadStatsFailures pins.
func FuzzBenchRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, id string) {
		st, err := decodeStats(data, id)
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, "byte ") && !strings.Contains(msg, "records experiment") &&
				!strings.Contains(msg, "events_processed") {
				t.Errorf("error says nothing of where: %v", err)
			}
			return
		}
		if st.Events == 0 {
			t.Errorf("decoded a record without events: %+v", st)
		}
		if fails := compare(st, st, 0.1); len(fails) != 0 {
			t.Errorf("a record differs from itself: %v", fails)
		}
	})
}

// TestRejectsBadTolerance: a NaN or infinite -tol would turn the
// allocation gate off (d > tol is never true), and a negative one fail
// every unchanged count, so each is a usage error: exit 2 with the
// usage message, before any record is read.
func TestRejectsBadTolerance(t *testing.T) {
	for _, tol := range []string{"NaN", "+Inf", "-Inf", "-0.1"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-tol", tol, "base", "cand", "fig1"}, &stdout, &stderr); code != 2 {
			t.Errorf("-tol %s: exit %d, want 2", tol, code)
		}
		if !strings.Contains(stderr.String(), usage) || stdout.Len() != 0 {
			t.Errorf("-tol %s: stdout %q, stderr %q; want only the usage message", tol, stdout.String(), stderr.String())
		}
	}
	// The bounds themselves are tolerances.
	dir := t.TempDir()
	rec := `{"id":"ok","events_processed":10,"allocs":1}`
	if err := os.WriteFile(filepath.Join(dir, "BENCH_ok.json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tol := range []string{"0", "0.10"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-tol", tol, dir, dir, "ok"}, &stdout, &stderr); code != 0 {
			t.Errorf("-tol %s: exit %d, want 0 (stderr %q)", tol, code, stderr.String())
		}
	}
}
