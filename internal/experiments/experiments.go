// Package experiments regenerates every table and figure in the
// Quicksand paper's evaluation, plus ablations of the design choices.
// Each experiment is a named runner that builds its own simulated
// cluster, drives the workload, and reports the paper's rows/series
// alongside machine-readable key values.
//
// The experiment index (DESIGN.md §4):
//
//	fig1           Figure 1  — filler migration across 10 ms idle gaps
//	fig2           Figure 2  — preprocessing parity across imbalanced splits
//	fig3           Figure 3  — adapting producers to 4<->8 GPU swings
//	abl-migration  ablation  — migration latency vs proclet state size
//	abl-split      ablation  — split latency vs shard size
//	abl-prefetch   ablation  — iterator prefetch on/off
//	abl-sched      ablation  — two-level vs local-only vs global-only
//	abl-locality   ablation  — affinity colocation on/off
//	ext-gpu        extension — GPU proclets (§4/§5 future work) vs restart
//	abl-granularity ablation — goodput vs proclet granularity
//	abl-reactor    ablation  — goodput vs fast-path sampling period
//	ext-harvest    extension — fleet-wide staggered-idle harvesting
//	ext-memharvest extension — memory harvesting without data loss
//	abl-postcopy   ablation  — blackout of pre- vs post-copy migration
//	ext-tiering    extension — cold shards spill to a flash tier
//	ext-chaos      extension — goodput under injected crashes/partitions
//	ext-failover   extension — replicated proclets, leases, failover
//	ext-scale      extension — 1,000-machine partitioned fleet (ParKernel)
//	ext-serve      extension — million-client open-loop serving (tail latency)
//	ext-gpufleet   extension — GPU gray failures: checkpoints, stragglers, makespan
package experiments

import (
	"fmt"
	"io"
	"sort"
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
	// across the experiment's simulation runs, and Trace the rendered
	// control-plane event log — both exist so the determinism
	// regression test can assert that one seed produces exactly one
	// behaviour. Currently populated by the figure experiments.
	EventsProcessed uint64
	Trace           []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Values: make(map[string]float64), Series: make(map[string][]float64)}
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

// parallelism bounds the host goroutines used to fan independent
// simulation configurations (fig1/fig2 modes, ablation sweep points)
// out across cores; 0 means GOMAXPROCS. Every configuration runs on
// its own sim.Kernel and results are merged by configuration index, so
// the outcome is identical at any setting.
var parallelism = 0

// SetParallelism bounds intra-experiment fan-out to n host workers
// (n <= 0 restores the GOMAXPROCS default). Not safe to call
// concurrently with Run.
func SetParallelism(n int) {
	if n <= 0 {
		n = 0
	}
	parallelism = n
}

// Parallelism returns the current intra-experiment worker bound
// (0 = GOMAXPROCS).
func Parallelism() int { return parallelism }

// baseSeed offsets the RNG seeds of the seed-swept experiments (fig2,
// ext-chaos, ext-failover) so CI can verify determinism at several seeds: two runs at
// the same base seed must be byte-identical, while different base seeds
// explore different schedules. The default of zero leaves every
// experiment at its committed seed, so the BENCH_*.json baselines are
// unaffected.
var baseSeed int64

// SetBaseSeed sets the seed offset (see baseSeed). Not safe to call
// concurrently with Run.
func SetBaseSeed(s int64) { baseSeed = s }

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
	"fig1":            {"filler app harvests 10ms idle CPU windows via migration", runFig1},
	"fig2":            {"DNN preprocessing across imbalanced machines (table)", runFig2},
	"fig3":            {"compute proclets adapt to varying GPUs", runFig3},
	"abl-migration":   {"migration latency vs proclet state size", runAblMigration},
	"abl-split":       {"split latency vs shard size", runAblSplit},
	"abl-prefetch":    {"iterator prefetch on/off", runAblPrefetch},
	"abl-sched":       {"two-level scheduling ablation", runAblSched},
	"abl-locality":    {"affinity colocation ablation", runAblLocality},
	"ext-gpu":         {"extension: GPU proclets ride out spot reclamations", runExtGPU},
	"abl-granularity": {"proclet granularity ablation (constant total state)", runAblGranularity},
	"abl-reactor":     {"fast-path reactor period ablation", runAblReactor},
	"ext-harvest":     {"extension: harvesting a 6-machine fleet's staggered idle phases", runExtHarvest},
	"ext-memharvest":  {"extension: sharded store surfs an oscillating memory tenant", runExtMemHarvest},
	"abl-postcopy":    {"pre-copy vs post-copy (CXL-style) migration", runAblPostcopy},
	"ext-tiering":     {"extension: flash as slow cheap memory for sharded data", runExtTiering},
	"ext-chaos":       {"extension: goodput dip and recovery under injected crashes and partitions", runExtChaos},
	"ext-failover":    {"extension: replicated memory proclets fail over a crash without data loss", runExtFailover},
	"ext-scale":       {"extension: 1,000-machine partitioned fleet, deterministic at any worker count", runExtScale},
	"ext-serve":       {"extension: million-client open-loop serving with tail-latency telemetry", runExtServe},
	"ext-gpufleet":    {"extension: heterogeneous GPU fleet under gray failures (checkpoints, stragglers)", runExtGPUFleet},
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

// Title returns an experiment's one-line description.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given ID.
func Run(id string, scale Scale) (*Result, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, List())
	}
	return e.run(scale)
}
