package main

// One run: one workload, one seed, measured for a fixed time. The
// untraced pass reports the end-to-end metrics; the traced pass reports
// the per-layer ones and what tracing cost.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

type runConfig struct {
	workload string
	seed     int64
	budget   time.Duration // how long the run measures
	trace    bool
	scale    scale
	traceDir string // where the traced pass writes trace-<workload>.json
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports; its JSON form is the last line the
// command prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repStat is one timed rep: host seconds, heap objects and bytes
// allocated, and the rep's verified output.
type repStat struct {
	wall    float64
	mallocs float64
	bytes   float64
	out     repOut
}

// timedRep collects garbage, so every rep starts from the same heap,
// then times one rep, in host seconds as they are: the traced pass, whose
// times are per-layer readings, uses it.
func timedRep(w workload, e *env) (repStat, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := w.rep(e)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return repStat{
		wall:    wall.Seconds(),
		mallocs: float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		out:     out,
	}, err
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) computes them.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after the clamp, as Python does: the ends extrapolate
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func column(stats []repStat, f func(repStat) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}

// count adds one rep's verified units to the result; a rep whose digest
// is not the reference's (same seed, different simulated output) fails.
func (r *runResult) count(out repOut, ref [32]byte) {
	r.Attempted += out.units
	r.Failed += out.failed
	if out.digest != ref {
		r.Failed++
	}
}

// run executes one run and writes its human-readable report to w.
func run(cfg runConfig, w io.Writer) (runResult, error) {
	res := runResult{Metrics: map[string]metricValue{}}
	if newWorkload(cfg.workload) == nil {
		return res, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v scale %s\n",
		cfg.workload, cfg.seed, cfg.budget.Seconds(), cfg.trace, cfg.scale.name)
	pass := untracedPass
	if cfg.trace {
		pass = tracedPass
	}
	ref, err := pass(cfg, &res, w)
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(w, "digest %s attempted %d failed %d correct %v\n",
		hex.EncodeToString(ref[:8]), res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// sample is what one rep child reports: one cold set-up and one rep in a
// process of its own. SetupS and WallS are seconds on the reference host
// (calib.go); the Raw fields are the host seconds they were scaled from.
// PeakRSS is the child's own reading as the rep ended: by the time the
// child exits the closing calibration has run on top of the rep's heap.
type sample struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	RawSetupS float64 `json:"raw_setup_s"`
	RawWallS  float64 `json:"raw_wall_s"`
	CalibS    float64 `json:"calib_s"` // mean calibration time around the rep
	Mallocs   float64 `json:"mallocs"`
	Bytes     float64 `json:"bytes"`
	Digest    string  `json:"digest"`
	Units     int     `json:"units"`
	Failed    int     `json:"failed"`
	PeakRSS   float64 `json:"peak_rss_mb"` // MiB
}

// childRep is the body of a rep child (--child-rep): set the workload
// up, run one rep, print the sample. Set-up and rep are each timed by the
// meter, from a collected heap and between calibrations of the host's
// speed.
func childRep(cfg runConfig, w io.Writer) error {
	wl := newWorkload(cfg.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	m := &meter{ops: calibOps / cfg.scale.probeDiv}
	e := &env{seed: cfg.seed, scale: cfg.scale, workers: simWorkers, m: m}
	calibrate(m.ops) // the first one in a process pays for its pages; discard it
	m.begin()
	if err := wl.setup(e); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup := m.end()
	m.begin()
	out, err := wl.rep(e)
	rep := m.end()
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(sample{
		SetupS: setup.norm, WallS: rep.norm, RawSetupS: setup.raw, RawWallS: rep.raw, CalibS: rep.calib,
		Mallocs: rep.mallocs, Bytes: rep.bytes, PeakRSS: rep.peakRSS,
		Digest: hex.EncodeToString(out.digest[:]), Units: out.units, Failed: out.failed,
	})
}

// untracedPass measures the end-to-end metrics. Every rep runs in a
// child process of its own, as a user runs one scenario: scenario.Run
// leaves its fleet behind (processes still parked at the end keep their
// goroutines and, through them, the shard state), so in one process each
// rep would start from a larger heap than the last, the collector would
// run less and less often, and wall_s would depend on how many reps came
// before. A child per rep makes every rep the same measurement and makes
// peak memory that of one simulation run. wall_s and setup_s are medians
// of the children's times scaled to the reference host (calib.go), which
// takes out most of what the shared host's drifting speed puts in.
func untracedPass(cfg runConfig, res *runResult, w io.Writer) (ref [32]byte, err error) {
	exe, err := os.Executable()
	if err != nil {
		return ref, err
	}
	var samples []sample
	var last time.Duration
	for start := time.Now(); len(samples) < cfg.scale.minReps || time.Since(start)+last <= cfg.budget; {
		childStart := time.Now()
		cmd := exec.Command(exe, "--child-rep", "--workload", cfg.workload,
			"--seed", strconv.FormatInt(cfg.seed, 10), "--scale", cfg.scale.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return ref, fmt.Errorf("rep child: %w", err)
		}
		var s sample
		if err := json.Unmarshal(out, &s); err != nil {
			return ref, fmt.Errorf("rep child printed %q: %w", out, err)
		}
		var digest [32]byte
		if _, err := hex.Decode(digest[:], []byte(s.Digest)); err != nil {
			return ref, fmt.Errorf("rep child digest %q: %w", s.Digest, err)
		}
		if len(samples) == 0 {
			ref = digest
		}
		res.count(repOut{digest: digest, units: s.Units, failed: s.Failed}, ref)
		samples = append(samples, s)
		last = time.Since(childStart)
	}

	median := func(f func(sample) float64) (q1, med, q3 float64) {
		values := make([]float64, len(samples))
		for i, s := range samples {
			values[i] = f(s)
		}
		return quartiles(values)
	}
	report := func(name string, f func(sample) float64) {
		q1, med, q3 := median(f)
		def := defOf(endToEnd, name)
		res.Metrics[name] = metricValue{med, def.Unit}
		fmt.Fprintf(w, "%-12s %14.6g %-5s n=%d q1=%.6g q3=%.6g\n", name, med, def.Unit, len(samples), q1, q3)
	}
	report("wall_s", func(s sample) float64 { return s.WallS })
	report("allocs", func(s sample) float64 { return s.Mallocs })
	report("alloc_mb", func(s sample) float64 { return s.Bytes / (1 << 20) })
	report("peak_rss_mb", func(s sample) float64 { return s.PeakRSS })
	report("setup_s", func(s sample) float64 { return s.SetupS })
	// What the host did, for the reader: the unscaled times and how slow
	// the calibration kernel found this host against the reference.
	_, rawWall, _ := median(func(s sample) float64 { return s.RawWallS })
	_, rawSetup, _ := median(func(s sample) float64 { return s.RawSetupS })
	q1, calib, q3 := median(func(s sample) float64 { return s.CalibS / calibRefS })
	fmt.Fprintf(w, "unscaled: wall %.6g s, set-up %.6g s; host takes %.3f of the reference host's time (q1=%.3f q3=%.3f)\n",
		rawWall, rawSetup, calib, q1, q3)
	return ref, nil
}

func defOf(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not declared in defs.go")
}

// tracedPass reports every per-layer metric, in this process: one
// set-up and a warm-up rep, three quarters of the budget on reps
// alternately untraced and traced, one rep at GOMAXPROCS=2, then the
// probes. Its reps share one heap, so the later ones see fewer
// collections than a rep child does; that is why its times are per-layer
// readings and not the end-to-end metrics.
func tracedPass(cfg runConfig, res *runResult, w io.Writer) (ref [32]byte, err error) {
	wl := newWorkload(cfg.workload)
	tr := newTracer(cfg.workload)
	e := &env{seed: cfg.seed, scale: cfg.scale, workers: simWorkers, tr: tr}

	done := tr.span("setup")
	err = wl.setup(e)
	done()
	if err != nil {
		return ref, fmt.Errorf("set-up: %w", err)
	}
	e.tr = nil
	warm, err := timedRep(wl, e)
	if err != nil {
		return ref, fmt.Errorf("warm-up: %w", err)
	}
	ref = warm.out.digest

	// Pairs of reps for three quarters of the budget: one with tracing
	// off, one with the spans and the CPU profile on. Alternating keeps
	// the two kinds on the same heap, which matters because reps sharing
	// a process see fewer collections as the heap grows.
	var plain, traced []repStat
	var profiles []*bytes.Buffer
	var pair time.Duration
	for start := time.Now(); len(traced) == 0 || time.Since(start)+pair <= cfg.budget*3/4; {
		pairStart := time.Now()
		st, err := timedRep(wl, e)
		if err != nil {
			return ref, err
		}
		res.count(st.out, ref)
		plain = append(plain, st)

		profile := new(bytes.Buffer)
		if err := pprof.StartCPUProfile(profile); err != nil {
			return ref, fmt.Errorf("cpu profile: %w", err)
		}
		e.tr = tr
		done := tr.span("rep")
		st, err = timedRep(wl, e)
		done()
		e.tr = nil
		pprof.StopCPUProfile()
		if err != nil {
			return ref, err
		}
		res.count(st.out, ref)
		traced = append(traced, st)
		profiles = append(profiles, profile)
		pair = time.Since(pairStart)
	}
	_, plainWall, _ := quartiles(column(plain, func(s repStat) float64 { return s.wall }))
	_, wall, _ := quartiles(column(traced, func(s repStat) float64 { return s.wall }))
	_, mallocs, _ := quartiles(column(traced, func(s repStat) float64 { return s.mallocs }))

	values := map[string]float64{"trace_overhead_frac": wall/plainWall - 1}
	last := traced[len(traced)-1].out
	for name, v := range last.counters {
		values[name] = v
	}
	for name, v := range last.timings {
		values[name] = v
	}
	if events := values["sim.events"]; events > 0 {
		values["sim.ns_per_event"] = wall * 1e9 / events
		values["sim.allocs_per_event"] = mallocs / events
	}

	// What a second P costs the one-worker simulator, and on serve-read
	// what a second simulator worker then buys, each as one rep against
	// the last untraced rep, which ran on about the same heap; neither
	// may change the simulated output. Skipped on a one-core host: the
	// benchmark never runs more simulator workers than cores.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
		ratio := func(workers int) (float64, error) {
			e.workers = workers
			st, err := timedRep(wl, e)
			e.workers = simWorkers
			if err == nil {
				res.count(st.out, ref)
			}
			return st.wall / plain[len(plain)-1].wall, err
		}
		values["sim.gomaxprocs2_wall_ratio"], err = ratio(simWorkers)
		if err == nil && cfg.workload == "serve-read" {
			values["sim.par.p2_wall_ratio"], err = ratio(2)
		}
		runtime.GOMAXPROCS(timedProcs)
		if err != nil {
			return ref, err
		}
	}

	for _, p := range probes {
		done := tr.span("probe:" + p.metric)
		pr := runProbe(p, cfg.scale.probeDiv)
		done()
		values[p.metric] = pr.perOp
		values[p.allocs] = pr.allocsPerOp
		if p.simMetric != "" {
			values[p.simMetric] = pr.simUS
		}
	}

	var samples []profileSample
	for _, profile := range profiles {
		more, err := readProfile(profile.Bytes())
		if err != nil {
			return ref, err
		}
		samples = append(samples, more...)
	}
	for bucket, share := range cpuShareOf(samples) {
		values["cpu_share."+bucket] = share
	}

	for _, def := range perLayer {
		res.Metrics[def.Name] = metricValue{values[def.Name], def.Unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", def.Name, values[def.Name], def.Unit)
	}
	fmt.Fprintf(w, "wall_s traced %.6g untraced %.6g (n=%d and %d)\n", wall, plainWall, len(traced), len(plain))
	fmt.Fprintf(w, "%-28s %6s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range tr.selfTimes() {
		fmt.Fprintf(w, "%-28s %6d %12.3f %12.3f\n", st.name, st.count,
			float64(st.total.Nanoseconds())/1e6, float64(st.self.Nanoseconds())/1e6)
	}

	var chrome bytes.Buffer
	if err := tr.writeChrome(&chrome); err != nil {
		return ref, err
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return ref, err
	}
	path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".json")
	if err := os.WriteFile(path, chrome.Bytes(), 0o644); err != nil {
		return ref, err
	}
	fmt.Fprintf(w, "trace written to %s\n", path)
	return ref, nil
}
