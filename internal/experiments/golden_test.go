package experiments

// The golden table: the one determinism check of the experiment suite,
// one harness behind two tests — TestExperimentDeterminism takes the
// paper's figures and ablations, TestExtGoldens the ext-* experiments,
// so between them they run every id in List(). A seed's output is a
// fact of the simulation, so testdata/<id>.golden holds everything a
// run of <id> at TestScale observes — Print, EventsProcessed, every
// Values key written exactly, and the Trace and each Series as a count
// plus a SHA-256 — for base seeds 0, 1 and 2. Every experiment runs at
// -par 1 and -par 4 and must reproduce its golden byte for byte at both:
// a run that differs from itself, from another worker count, or from
// the committed seed's past has changed behaviour.
//
//	EXPERIMENTS_UPDATE_GOLDENS=1 go test -run 'TestExperimentDeterminism|TestExtGoldens'
//
// rewrites the files from the -par 1 runs, which only makes sense when a
// change means to move the output; the diff then shows what moved.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// goldenSeeds and goldenPars are the base seeds and -par values every
// experiment runs at.
var (
	goldenSeeds = []int64{0, 1, 2}
	goldenPars  = []int{1, 4}
)

func TestExperimentDeterminism(t *testing.T) {
	goldenTable(t, func(id string) bool { return !strings.HasPrefix(id, "ext-") })
}

func TestExtGoldens(t *testing.T) {
	goldenTable(t, func(id string) bool { return strings.HasPrefix(id, "ext-") })
}

// goldenTable checks every id in List() that take selects against its
// golden, at every golden seed and -par value.
func goldenTable(t *testing.T, take func(id string) bool) {
	t.Helper()
	defer SetBaseSeed(0)
	defer SetParallelism(0)
	update := os.Getenv("EXPERIMENTS_UPDATE_GOLDENS") != ""
	for _, id := range List() {
		if !take(id) {
			continue
		}
		t.Run(id, func(t *testing.T) {
			got := make([]string, len(goldenPars))
			for i, par := range goldenPars {
				SetParallelism(par)
				var b strings.Builder
				for _, seed := range goldenSeeds {
					SetBaseSeed(seed)
					res, err := Run(id, TestScale)
					if err != nil {
						t.Fatalf("-par %d seed %d: %v", par, seed, err)
					}
					fmt.Fprintf(&b, "-- seed %d\n", seed)
					writeGolden(&b, res)
				}
				got[i] = b.String()
				if i > 0 && got[i] != got[0] {
					t.Errorf("-par %d differs from -par %d: %s", par, goldenPars[0], firstDiff(got[0], got[i]))
				}
			}
			path := filepath.Join("testdata", id+".golden")
			if update {
				if err := os.WriteFile(path, []byte(got[0]), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != string(want) {
				t.Errorf("output differs from %s: %s", path, firstDiff(string(want), got[0]))
			}
		})
	}
}

// writeGolden renders every observable of res: its printed report, then
// one line each for the event count, each value, the trace, the series
// time axis and each series.
func writeGolden(b *strings.Builder, res *Result) {
	res.Print(b)
	fmt.Fprintf(b, "events_processed %d\n", res.EventsProcessed)
	for _, k := range sortedKeys(res.Values) {
		fmt.Fprintf(b, "value %s %s\n", k, strconv.FormatFloat(res.Values[k], 'g', -1, 64))
	}
	fmt.Fprintf(b, "trace %d %s\n", len(res.Trace), digest(res.Trace))
	fmt.Fprintf(b, "series_time %d %s\n", len(res.SeriesTime), digest(floats(res.SeriesTime)))
	for _, k := range sortedKeys(res.Series) {
		fmt.Fprintf(b, "series %s %d %s\n", k, len(res.Series[k]), digest(floats(res.Series[k])))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func floats(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return out
}

// digest is the hex SHA-256 of lines, each newline-terminated.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// firstDiff names the first line where want and got part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d\n--- want\n%s\n--- got\n%s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}

// TestTraceExportGoldens holds the -trace-dir exports to
// testdata/traces.golden: the SHA-256 of every file that fig1,
// ext-failover, ext-memharvest and ext-serve write at TestScale, base
// seed 0 — the Chrome writer's bytes, spans and telemetry both.
// EXPERIMENTS_UPDATE_GOLDENS=1 rewrites the file.
func TestTraceExportGoldens(t *testing.T) {
	defer SetTraceDir("")
	defer SetParallelism(0)
	dir := t.TempDir()
	SetTraceDir(dir)
	SetParallelism(1)
	SetBaseSeed(0)
	for _, id := range []string{"fig1", "ext-failover", "ext-memharvest", "ext-serve"} {
		if _, err := Run(id, TestScale); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var b strings.Builder
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", filepath.Base(f), len(data), sha256.Sum256(data))
	}
	path := filepath.Join("testdata", "traces.golden")
	if os.Getenv("EXPERIMENTS_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("trace exports differ from %s: %s", path, firstDiff(string(want), b.String()))
	}
}
