package main

// The four workloads. Each drives the program only through its public
// entry points (scenario.Parse/Run, experiments.Run) with inputs made
// from the run's seed, and hashes the simulated output of every rep so
// the harness can tell whether two reps of one seed agree.

import (
	"crypto/sha256"
	"embed"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

//go:embed workloads
var workloadFS embed.FS

// simWorkers is the simulator's host worker count (scenario.Options.Par,
// experiments.SetParallelism) on every timed rep. One worker keeps host
// time free of scheduling between workers on a 2-core host; the traced
// pass reruns serve-read at two to report what a second worker buys.
const simWorkers = 1

// timedProcs is GOMAXPROCS for every timed rep (see main.go for why).
const timedProcs = 1

// scale sizes a run. full is what BENCHMARK.json measures; smoke shrinks
// every input so the tests can drive the whole command in seconds.
type scale struct {
	name      string
	horizonMS float64 // > 0: cut every scenario to this horizon and drop its events
	seeds     int     // scenario-matrix seeds per scenario
	figs      []string
	figScale  experiments.Scale
	probeDiv  int // probe counts and the calibration kernel's operations are divided by this
	minReps   int // rep children per untraced run, whatever the budget
}

var scales = map[string]scale{
	"full": {name: "full", seeds: 6, figs: paperFigs, figScale: experiments.FullScale,
		probeDiv: 1, minReps: 3},
	"smoke": {name: "smoke", horizonMS: 2, seeds: 1,
		figs: []string{"fig3", "abl-migration", "abl-split", "abl-prefetch", "abl-postcopy"}, figScale: experiments.TestScale,
		probeDiv: 200, minReps: 1},
}

// env is what a workload sees of the run it is part of.
type env struct {
	seed    int64
	scale   scale
	workers int     // simulator workers for this rep
	tr      *tracer // nil in the untraced pass
	m       *meter  // nil in the traced pass
}

// repOut is one rep's verified result.
type repOut struct {
	digest [sha256.Size]byte
	units  int // simulation runs whose output was checked
	failed int // of those, runs that errored, lost data or failed an assertion
	// counters are exact per seed; timings are host milliseconds.
	counters map[string]float64
	timings  map[string]float64
}

// A workload sets itself up (the cost setup_s reports) and then runs
// identical reps.
type workload interface {
	setup(e *env) error
	rep(e *env) (repOut, error)
}

// newWorkload returns the named workload, or nil.
func newWorkload(name string) workload {
	switch name {
	case "serve-read", "serve-write-rf2":
		return &serveWorkload{file: "workloads/" + name + ".yaml"}
	case "paper-figs":
		return &figsWorkload{}
	case "scenario-matrix":
		return &matrixWorkload{}
	}
	return nil
}

// cut returns sp shortened to horizonMS of simulated time: same fleet,
// stores, preload, drain and verification, no scheduled events, and only
// the two assertions that hold at any horizon. With horizonMS of 1 it is
// a scenario's zero-horizon twin, whose cost is all set-up.
func cut(sp *scenario.Spec, horizonMS float64) *scenario.Spec {
	c := *sp
	c.HorizonMS = horizonMS
	c.DrainMS = 6
	c.Events = nil
	c.Asserts = []scenario.Assertion{
		{Metric: "lost", Op: "==", Value: 0},
		{Metric: "generated", Op: ">", Value: 0},
	}
	return &c
}

// parse reads one embedded scenario and applies the scale's horizon cut.
func parse(e *env, file string) (*scenario.Spec, error) {
	defer e.tr.span("parse")()
	src, err := workloadFS.ReadFile(file)
	if err != nil {
		return nil, err
	}
	sp, err := scenario.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if e.scale.horizonMS > 0 {
		sp = cut(sp, e.scale.horizonMS)
	}
	return sp, nil
}

// runScenario runs sp at seed, renders its report and checks the run:
// no error, every assertion of the file holds, and every generated
// request was served and recorded exactly once.
func runScenario(e *env, sp *scenario.Spec, seed int64) (*scenario.Outcome, bool, error) {
	done := e.tr.span("run")
	out, err := scenario.Run(sp, scenario.Options{Seed: seed, Par: e.workers})
	done()
	if err != nil {
		return nil, false, fmt.Errorf("scenario %s seed %d: %w", sp.Name, seed, err)
	}
	done = e.tr.span("report")
	out.WriteReport(io.Discard)
	done()
	m := out.Metrics
	ok := out.Pass && m["served"] == m["generated"] && float64(out.Hist.Count()) == m["served"]
	return out, ok, nil
}

// scenarioTotals folds scenario outcomes into a rep's digest, counters
// and merged latency histogram.
type scenarioTotals struct {
	h        hash.Hash
	hist     *metrics.LogHistogram
	counters map[string]float64
	failedOp float64
}

func newScenarioTotals() *scenarioTotals {
	return &scenarioTotals{h: sha256.New(), hist: metrics.NewLogHistogram("merged"), counters: map[string]float64{}}
}

// counterOf maps scenario metric names to per-layer counter names.
var counterOf = map[string]string{
	"events":        "sim.events",
	"windows":       "sim.par.windows",
	"goodput_rps":   "sim.goodput_rps",
	"generated":     "load.generated",
	"acked_writes":  "core.acked_writes",
	"promotions":    "core.promotions",
	"recoveries":    "core.recoveries",
	"migrations":    "proclet.migrations",
	"trainer_steps": "gpu.trainer_steps",
	"slo_windows":   "obs.slo_windows",
}

func (t *scenarioTotals) add(out *scenario.Outcome) {
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(t.h, "%s=%x\n", name, math.Float64bits(out.Metrics[name]))
	}
	fmt.Fprintf(t.h, "hist=%v\n", out.Hist.Snapshot())
	for _, a := range out.Asserts {
		fmt.Fprintf(t.h, "assert %s %s %x %v\n", a.Metric, a.Op, math.Float64bits(a.Got), a.Pass)
	}
	t.hist.Merge(out.Hist)
	for from, to := range counterOf {
		t.counters[to] += out.Metrics[from]
	}
	for _, name := range []string{"timeouts", "errors", "lost", "lost_steps"} {
		t.failedOp += out.Metrics[name]
	}
}

func (t *scenarioTotals) finish(out *repOut) {
	copy(out.digest[:], t.h.Sum(nil))
	c := t.counters
	c["sim.p999_ms"] = t.hist.QuantileMS(0.999)
	if c["sim.par.windows"] > 0 {
		c["sim.par.events_per_window"] = c["sim.events"] / c["sim.par.windows"]
	}
	if ops := c["load.generated"] + c["gpu.trainer_steps"]; ops > 0 {
		c["load.failed_frac"] = t.failedOp / ops
	}
	out.counters = c
}

// serveWorkload is one long scenario: serve-read or serve-write-rf2.
type serveWorkload struct {
	file string
	spec *scenario.Spec
}

// setup reads and parses the scenario and runs its zero-horizon twin:
// fleet build, preload, drain and verification with next to no load.
func (w *serveWorkload) setup(e *env) error {
	sp, err := parse(e, w.file)
	if err != nil {
		return err
	}
	w.spec = sp
	defer e.tr.span("setup-twin")()
	_, ok, err := runScenario(e, cut(sp, 1), e.seed)
	if err == nil && !ok {
		err = fmt.Errorf("%s: zero-horizon twin failed its checks", w.file)
	}
	return err
}

func (w *serveWorkload) rep(e *env) (repOut, error) {
	out, ok, err := runScenario(e, w.spec, e.seed)
	if err != nil {
		return repOut{}, err
	}
	res := repOut{units: 1}
	if !ok {
		res.failed = 1
	}
	t := newScenarioTotals()
	t.add(out)
	t.finish(&res)
	return res, nil
}

// matrixWorkload is CI's traffic: every frozen library scenario at
// seeds seed..seed+5, each run parsing its file afresh.
type matrixWorkload struct {
	files []string
}

func (w *matrixWorkload) setup(e *env) error {
	files, err := fs.Glob(workloadFS, "workloads/matrix/*.yaml")
	if err != nil || len(files) == 0 {
		return fmt.Errorf("scenario-matrix: no embedded scenarios (%v)", err)
	}
	w.files = files
	defer e.tr.span("setup-twin")()
	for _, file := range files {
		sp, err := parse(e, file)
		if err != nil {
			return err
		}
		if _, ok, err := runScenario(e, cut(sp, 1), e.seed); err != nil {
			return err
		} else if !ok {
			return fmt.Errorf("%s: zero-horizon twin failed its checks", file)
		}
	}
	return nil
}

func (w *matrixWorkload) rep(e *env) (repOut, error) {
	var res repOut
	t := newScenarioTotals()
	var runMS []float64
	for _, file := range w.files {
		name := strings.TrimSuffix(file[strings.LastIndexByte(file, '/')+1:], ".yaml")
		for i := 0; i < e.scale.seeds; i++ {
			done := e.tr.span("cell:" + name)
			start := time.Now()
			sp, err := parse(e, file)
			if err != nil {
				return repOut{}, err
			}
			out, ok, err := runScenario(e, sp, e.seed+int64(i))
			if err != nil {
				return repOut{}, err
			}
			runMS = append(runMS, float64(time.Since(start).Nanoseconds())/1e6)
			done()
			res.units++
			if !ok {
				res.failed++
			}
			t.add(out)
		}
	}
	t.finish(&res)
	sort.Float64s(runMS)
	res.timings = map[string]float64{
		"scenario.run_ms_p50": runMS[len(runMS)/2],
		"scenario.run_ms_p90": runMS[len(runMS)*9/10],
	}
	return res, nil
}

// figsWorkload is the paper's own evaluation on the sequential kernel.
type figsWorkload struct{}

// setup points the experiments package at the run's seed and one worker
// and runs the same experiments at test scale, where building and
// tearing down each experiment's cluster dominates.
func (w *figsWorkload) setup(e *env) error {
	experiments.SetParallelism(simWorkers)
	experiments.SetBaseSeed(e.seed)
	defer e.tr.span("setup-twin")()
	_, err := runFigs(e, experiments.TestScale)
	return err
}

func (w *figsWorkload) rep(e *env) (repOut, error) {
	return runFigs(e, e.scale.figScale)
}

func runFigs(e *env, sc experiments.Scale) (repOut, error) {
	res := repOut{counters: map[string]float64{}, timings: map[string]float64{}}
	h := sha256.New()
	for _, id := range e.scale.figs {
		done := e.tr.span("experiment:" + id)
		start := time.Now()
		r, err := experiments.Run(id, sc)
		res.timings["experiments."+id+"_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
		done()
		e.m.lap()
		res.units++
		if err != nil {
			return repOut{}, fmt.Errorf("experiment %s: %w", id, err)
		}
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "== %s\n", id)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%x\n", k, math.Float64bits(r.Values[k]))
		}
		for _, line := range r.Lines {
			fmt.Fprintln(h, line)
		}
		res.counters["sim.events"] += float64(r.EventsProcessed)
	}
	copy(res.digest[:], h.Sum(nil))
	return res, nil
}
