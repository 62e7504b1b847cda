// Package experiments regenerates every table and figure in the
// Quicksand paper's evaluation, plus ablations of the design choices.
// Each experiment is a named runner: a list of run specs, each
// simulated on its own cluster by one executor (runs.go), and a
// reporter that turns their outcomes into the paper's rows/series
// alongside machine-readable key values.
//
// List and Title give the experiment index; DESIGN.md §4 describes
// each experiment.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Result is one experiment's output.
type Result struct {
	ID    string
	Title string
	// Lines are the human-readable rows (the paper's table/series).
	Lines []string
	// Values are machine-readable key results for tests and
	// EXPERIMENTS.md.
	Values map[string]float64
	// Series holds plot-ready time series (one sample per row), keyed
	// by name; all series of one result share the SeriesTime axis (in
	// milliseconds). Only figure experiments populate these.
	Series     map[string][]float64
	SeriesTime []float64
	// EventsProcessed is the total number of kernel events executed
	// across the experiment's simulation runs (every experiment sets it),
	// and Traces the control-plane event logs of those that keep one, in
	// run order — both exist so the golden table can assert that one seed
	// produces exactly one behaviour. The logs are rendered only when
	// read, by TraceLines.
	EventsProcessed uint64
	Traces          []*obs.Log
}

// TraceLines renders Traces, one line per event, log after log.
func (r *Result) TraceLines() []string {
	var lines []string
	for _, l := range r.Traces {
		lines = append(lines, l.Lines()...)
	}
	return lines
}

// newResult starts experiment id's result; Run fills in its Title from
// the registry.
func newResult(id string) *Result {
	return &Result{ID: id, Values: make(map[string]float64), Series: make(map[string][]float64)}
}

// WriteCSV writes the result's series as CSV (time_ms plus one column
// per series, sorted by name). It writes nothing when the experiment
// produced no series.
func (r *Result) WriteCSV(w io.Writer) {
	if len(r.SeriesTime) == 0 {
		return
	}
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "time_ms")
	for _, name := range names {
		fmt.Fprintf(w, ",%s", name)
	}
	fmt.Fprintln(w)
	for i, ts := range r.SeriesTime {
		fmt.Fprintf(w, "%g", ts)
		for _, name := range names {
			v := 0.0
			if s := r.Series[name]; i < len(s) {
				v = s[i]
			}
			fmt.Fprintf(w, ",%g", v)
		}
		fmt.Fprintln(w)
	}
}

// plotBuckets sets the time axis to the start, in ms, of each of the
// first n buckets of width, and each named series to its counts there.
func (r *Result) plotBuckets(width time.Duration, n int, series map[string]*metrics.BucketSeries) {
	for b := 0; b < n; b++ {
		r.SeriesTime = append(r.SeriesTime, float64(int64(b)*int64(width))/float64(time.Millisecond))
	}
	for name, s := range series {
		r.Series[name] = s.Floats(0, n)
	}
}

func (r *Result) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Result) set(key string, v float64) { r.Values[key] = v }

// Print writes the result to w.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
}

// parallelism bounds the host goroutines that simulate one
// experiment's run specs (runs.go), each on its own sim.Kernel with
// outcomes merged in spec order. 0 means GOMAXPROCS. The outcome is
// identical at any setting.
var parallelism = 0

// SetParallelism bounds each experiment's host workers to n (n <= 0
// restores the GOMAXPROCS default) and empties the run memo; the output
// is the same at any n. Not safe to call concurrently with Run.
func SetParallelism(n int) {
	if n <= 0 {
		n = 0
	}
	parallelism = n
	memo.reset()
}

// baseSeed offsets the RNG seeds of the seed-swept experiments (fig2,
// ext-chaos, ext-failover, ext-scale, ext-serve) and ext-gpufleet's fault
// instants so CI can verify determinism at several seeds: two runs at the
// same base seed must be byte-identical, while different base seeds
// explore different schedules. The default of zero leaves every
// experiment at its committed seed, so the BENCH_*.json baselines are
// unaffected.
var baseSeed int64

// SetBaseSeed sets the seed offset (see baseSeed) and empties the run
// memo. Not safe to call concurrently with Run.
func SetBaseSeed(s int64) {
	baseSeed = s
	memo.reset()
}

// seeded mixes an experiment's built-in seed with the base seed; with
// the default base of 0 it returns s unchanged.
func seeded(s int64) int64 { return s + baseSeed*1_000_003 }

// Runner executes one experiment at the given scale.
type Runner func(scale Scale) (*Result, error)

// Scale selects the experiment size. FullScale matches the paper's
// setup; TestScale shrinks corpora and horizons so the whole suite
// runs in CI seconds while preserving every qualitative behaviour.
type Scale int

// Experiment scales.
const (
	FullScale Scale = iota
	TestScale
)

var registry = map[string]struct {
	title string
	run   Runner
}{
	"fig1":            {"Figure 1: millisecond-scale filler migration harvests anti-phased idle CPU", runFig1},
	"fig2":            {"Figure 2: preprocessing time parity across imbalanced machine splits", runFig2},
	"fig3":            {"Figure 3: compute proclets track varying GPU availability", runFig3},
	"abl-migration":   {"migration latency vs proclet state size", runAblMigration},
	"abl-split":       {"split latency vs shard size cap", runAblSplit},
	"abl-prefetch":    {"iterator prefetch hides remote shard latency", runAblPrefetch},
	"abl-sched":       {"two-level scheduling: fast local + slow global", runAblSched},
	"abl-locality":    {"affinity colocation for chatty proclet pairs", runAblLocality},
	"abl-granularity": {"filler goodput vs proclet granularity (constant total state)", runAblGranularity},
	"abl-reactor":     {"filler goodput vs local reactor period", runAblReactor},
	"ext-harvest":     {"extension: filler harvests a 6-machine fleet with staggered idle phases", runExtHarvest},
	"ext-memharvest":  {"extension: sharded store surfs an oscillating high-priority tenant", runExtMemHarvest},
	"abl-postcopy":    {"pre-copy vs post-copy (CXL-style) migration", runAblPostcopy},
	"ext-tiering":     {"extension: flash as slow cheap memory for sharded data", runExtTiering},
	"ext-chaos":       {"extension: goodput under injected crashes, partitions, and degraded links", runExtChaos},
	"ext-failover":    {"extension: replicated memory proclets fail over a crash without data loss", runExtFailover},
	"ext-scale":       {"extension: 1,000-machine partitioned fleet, deterministic at any worker count", runExtScale},
	"ext-serve":       {"extension: million-client open-loop serving with tail-latency telemetry", runExtServe},
	"ext-gpufleet":    {"extension: heterogeneous GPU fleet under gray failures — checkpoints, stragglers, makespan", runExtGPUFleet},
}

// List returns registered experiment IDs, sorted.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's one-line description, the title its
// report prints.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given ID.
func Run(id string, scale Scale) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, List())
	}
	res, err := e.run(scale)
	if res != nil {
		res.Title = e.title
	}
	return res, err
}
