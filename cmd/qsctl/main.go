// Command qsctl inspects a Quicksand cluster run: it executes a canned
// scenario on the simulator and dumps the control-plane trace
// (placements, migrations, splits, merges), per-machine utilization,
// and migration latency statistics — the observability surface an
// operator of the real system would use.
//
// Usage:
//
//	qsctl [-scenario <name>] [-horizon-ms N] [-events] [-trace-out run.json]
//	qsctl -scenario list [-scenario-dir scenarios]
//	qsctl run <file.yaml> [-seed N] [-par P] [-report out.json] [-trace-out out.txt] [-flight-out dump.txt] [-no-assert]
//	qsctl top <file.yaml> [-seed N] [-par P]
//	qsctl analyze run.jsonl [-top N]
//
// `qsctl run` executes a declarative scenario file (see
// internal/scenario and the scenarios/ library): a fleet spec, a
// workload mix, a timed fault/load schedule, and assertions, compiled
// onto the partitioned simulation kernel. The run is seeded and
// deterministic — at a fixed seed the report is byte-identical at any
// -par worker count. A failed assertion exits nonzero; -report writes
// the machine-readable verdict.
//
// `qsctl top` replays a scenario with per-window SLO history retained
// and renders the windowed serving state an operator's dashboard would
// show: per-window goodput, tail latency, error rate, and which
// burn-rate rules had an open incident during that window. It needs an
// `slo:` block in the scenario file.
//
// -flight-out (with `qsctl run`) writes the merged per-shard flight
// recorder — the last control-plane events before trouble — whenever an
// assertion fails or an incident opened during the run; CI uploads
// these dumps as failure artifacts.
//
// -trace-out enables causal span tracing and resource telemetry for
// the run and writes the result to the given path: a .json file is
// Chrome trace-event JSON (open in Perfetto or chrome://tracing); a
// .jsonl file is the compact record stream `qsctl analyze` digests
// into slowest-migration, per-method latency, and per-machine
// utilization reports.
//
// The replicas scenario runs a replicated store fleet through a crash
// and dumps per-proclet replication status: primary location, lease
// validity and expiry, replication log position, and per-backup apply
// lag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proclet"
	"repro/internal/replication"
	scen "repro/internal/scenario"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scenario is one canned run: its machine fleet and its driver.
type scenario struct {
	name     string
	desc     string
	machines func() []cluster.MachineConfig
	run      func(sys *core.System, horizon sim.Time, out io.Writer) error
}

// twoBig is the default fleet: two 8-core, 2 GiB machines.
func twoBig() []cluster.MachineConfig {
	return []cluster.MachineConfig{
		{Cores: 8, MemBytes: 2 << 30},
		{Cores: 8, MemBytes: 2 << 30},
	}
}

// scenarios is the ordered registry -scenario resolves against.
var scenarios = []scenario{
	{"filler", "anti-phased antagonists with a migrating filler pool (fig-1 style)", twoBig, runFiller},
	{"pipeline", "sharded preprocessing pipeline feeding a GPU queue", twoBig, runPipeline},
	{"churn", "sharded map under insert/delete waves plus a bursty memory co-tenant", func() []cluster.MachineConfig {
		// Small machines so the co-tenant's bursts push m0 past the
		// memory high water: every burst yields pressure → migration
		// causal chains in the exported trace.
		return []cluster.MachineConfig{
			{Cores: 8, MemBytes: 64 << 20},
			{Cores: 8, MemBytes: 64 << 20},
		}
	}, runChurn},
	{"gpu", "checkpointed trainers ride out XID, throttle, and spot reclaim", twoBig, runGPU},
	{"replicas", "replicated store fleet driven through a primary crash", func() []cluster.MachineConfig {
		// Replication needs room for anti-affine backups plus a monitor
		// machine that survives the scripted crash.
		return []cluster.MachineConfig{
			{Cores: 8, MemBytes: 2 << 30},
			{Cores: 8, MemBytes: 2 << 30},
			{Cores: 8, MemBytes: 2 << 30},
			{Cores: 8, MemBytes: 2 << 30},
		}
	}, runReplicas},
	{"serve", "open-loop multi-tenant serving against a sharded map (ext-serve style)", twoBig, runServe},
}

func findScenario(name string) *scenario {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

func listScenarios(w io.Writer, dir string) {
	fmt.Fprintln(w, "scenarios:")
	for _, sc := range scenarios {
		fmt.Fprintf(w, "  %-10s %s\n", sc.name, sc.desc)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if len(files) == 0 {
		return
	}
	sort.Strings(files)
	fmt.Fprintf(w, "scenario files (%s/, for qsctl run):\n", dir)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(w, "  %-28s (unreadable: %v)\n", filepath.Base(path), err)
			continue
		}
		sp, err := scen.Parse(string(src))
		if err != nil {
			fmt.Fprintf(w, "  %-28s (parse error: %v)\n", filepath.Base(path), err)
			continue
		}
		fmt.Fprintf(w, "  %-28s %s\n", filepath.Base(path), sp.Description)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, for tests. Returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "analyze" {
		return runAnalyze(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "run" {
		return runScenarioFile(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "top" {
		return runTop(args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("qsctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenarioName := fs.String("scenario", "filler", "scenario to run, or \"list\" to enumerate")
	horizonMs := fs.Int("horizon-ms", 100, "virtual run length in milliseconds")
	events := fs.Bool("events", false, "dump the full event trace")
	traceOut := fs.String("trace-out", "", "enable tracing+telemetry and write the run here (.json: Chrome trace-event; .jsonl: qsctl analyze input)")
	samplePeriod := fs.Duration("sample-period", 250*time.Microsecond, "telemetry sampling cadence (with -trace-out)")
	scenarioDir := fs.String("scenario-dir", "scenarios", "directory of scenario files to enumerate with -scenario list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenarioName == "list" {
		listScenarios(stdout, *scenarioDir)
		return 0
	}
	sc := findScenario(*scenarioName)
	if sc == nil {
		fmt.Fprintf(stderr, "qsctl: unknown scenario %q\n", *scenarioName)
		listScenarios(stderr, *scenarioDir)
		return 2
	}
	// Every canned run places its events at fractions of the horizon.
	if *horizonMs < 1 {
		fmt.Fprintf(stderr, "qsctl: -horizon-ms %d: the horizon must be at least 1 ms\n", *horizonMs)
		return 2
	}

	sys := core.NewSystem(core.DefaultConfig(), sc.machines())
	for _, m := range sys.Cluster.Machines() {
		m.TrackUtilization()
	}
	if *traceOut != "" {
		sys.EnableTracing()
		sys.EnableTelemetry(*samplePeriod)
	}
	sys.Start()

	horizon := sim.Time(time.Duration(*horizonMs) * time.Millisecond)
	if err := sc.run(sys, horizon, stdout); err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "scenario %q ran to %v (%d events)\n\n", sc.name, sys.K.Now(), sys.K.EventsProcessed())
	fmt.Fprintln(stdout, "-- control plane summary --")
	for _, kind := range []trace.Kind{trace.KindSpawn, trace.KindMigrate, trace.KindSplit,
		trace.KindMerge, trace.KindPressure, trace.KindRebalance, trace.KindDestroy} {
		fmt.Fprintf(stdout, "%-10s %5d\n", kind, sys.Trace.Count(kind))
	}
	fmt.Fprintf(stdout, "\n-- migrations --\n")
	ml := sys.Runtime.MigrationLatency
	fmt.Fprintf(stdout, "count %d  mean %.3f ms  p99 %.3f ms  max %.3f ms\n",
		ml.Count(), ml.Mean()*1000, ml.Percentile(99)*1000, ml.Max()*1000)
	fmt.Fprintf(stdout, "\n-- machines --\n")
	for _, m := range sys.Cluster.Machines() {
		util := 0.0
		if m.Util != nil {
			util = m.Util.Mean(0, sys.K.Now()) / m.Cores() * 100
		}
		fmt.Fprintf(stdout, "m%d: %2.0f cores, mem %d/%d MiB, mean cpu util %.1f%%, core-seconds %.3f\n",
			m.ID, m.Cores(), m.MemUsed()>>20, m.MemCapacity()>>20, util, m.CoreSeconds)
	}
	fmt.Fprintf(stdout, "\n-- proclets --\n")
	for _, pr := range sys.Runtime.Proclets() {
		fmt.Fprintf(stdout, "%-20s id=%-4d machine=%d heap=%dKiB invocations=%d\n",
			pr.Name(), pr.ID(), pr.Location(), pr.HeapBytes()>>10, pr.Invocations())
	}
	if *events {
		fmt.Fprintf(stdout, "\n-- event trace --\n%s", sys.Trace.String())
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, sys); err != nil {
			fmt.Fprintf(stderr, "qsctl: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d spans, %d telemetry series to %s\n",
			sys.Obs.Len(), len(sys.Tel.Series()), *traceOut)
	}
	return 0
}

// writeTrace exports the run's spans and samples: Chrome trace-event
// JSON by default, compact JSONL when the path ends in .jsonl.
func writeTrace(path string, sys *core.System) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".jsonl") {
		return obs.WriteJSONL(f, sys.Obs, sys.Tel)
	}
	return obs.WriteChromeTrace(f, sys.Obs, sys.Tel)
}

// loadScenario is the front half of `qsctl run` and `qsctl top`: parse
// the subcommand's flags, take its one scenario file — before the flags
// (`run file.yaml -seed 7`) or after them (`run -seed 7 file.yaml`) —
// and parse it. On failure sp is nil and code is the exit status: 2 for
// a usage or scenario error, 1 for a file that cannot be read.
func loadScenario(fs *flag.FlagSet, args []string, stderr io.Writer, usage string) (file string, sp *scen.Spec, code int) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		file, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return file, nil, 2
	}
	switch {
	case file == "" && fs.NArg() == 1:
		file = fs.Arg(0)
	case file != "" && fs.NArg() == 0:
	default:
		fmt.Fprintln(stderr, usage)
		return file, nil, 2
	}
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return file, nil, 1
	}
	sp, err = scen.Parse(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %s: %v\n", file, err)
		return file, nil, 2
	}
	return file, sp, 0
}

// runScenarioFile implements `qsctl run <file.yaml>`: parse, execute at
// the requested seed and worker count, print the deterministic report,
// and exit nonzero when an assertion fails.
func runScenarioFile(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qsctl run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "seed override (0: the scenario's committed seed)")
	par := fs.Int("par", 1, "host worker count (must not change the report bytes)")
	report := fs.String("report", "", "write the machine-readable JSON verdict here")
	traceOut := fs.String("trace-out", "", "write the merged control-plane trace here")
	flightOut := fs.String("flight-out", "", "write the flight recorder dump here when an assertion fails or an incident opened")
	noAssert := fs.Bool("no-assert", false, "evaluate and print assertions but always exit 0 (for determinism sweeps at non-committed seeds)")
	_, sp, code := loadScenario(fs, args, stderr,
		"usage: qsctl run <scenario.yaml> [-seed N] [-par P] [-report out.json] [-trace-out out.txt] [-flight-out dump.txt] [-no-assert]")
	if sp == nil {
		return code
	}
	out, err := scen.Run(sp, scen.Options{Seed: *seed, Par: *par})
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return 1
	}
	out.WriteReport(stdout)
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(stderr, "qsctl: %v\n", err)
			return 1
		}
		werr := out.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "qsctl: writing report: %v\n", werr)
			return 1
		}
	}
	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, []byte(strings.Join(out.Trace, "\n")+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "qsctl: writing trace: %v\n", err)
			return 1
		}
	}
	// The flight recorder dump is the post-mortem artifact: write it
	// only when there is something to autopsy — a failed assertion or
	// an incident the SLO plane opened during the run.
	if *flightOut != "" && (!out.Pass || out.Metrics["incidents_opened"] > 0) {
		f, err := os.Create(*flightOut)
		if err != nil {
			fmt.Fprintf(stderr, "qsctl: %v\n", err)
			return 1
		}
		werr := out.WriteFlightDump(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "qsctl: writing flight dump: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "wrote flight recorder dump to %s\n", *flightOut)
	}
	if !out.Pass && !*noAssert {
		return 1
	}
	return 0
}

// runTop implements `qsctl top <file.yaml>`: replay the scenario with
// per-window SLO history retained and render the windowed serving
// state, merged across shards, with open incidents marked per window.
func runTop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qsctl top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "seed override (0: the scenario's committed seed)")
	par := fs.Int("par", 1, "host worker count (must not change the table)")
	file, sp, code := loadScenario(fs, args, stderr, "usage: qsctl top <scenario.yaml> [-seed N] [-par P]")
	if sp == nil {
		return code
	}
	if !sp.SLO.Enabled() {
		fmt.Fprintf(stderr, "qsctl: %s: scenario has no slo block — nothing to render\n", file)
		return 2
	}
	out, err := scen.Run(sp, scen.Options{Seed: *seed, Par: *par, KeepWindows: true})
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return 1
	}
	writeTop(stdout, out)
	return 0
}

// writeTop renders the per-window SLO table. Shard histories are
// merged by absolute window index: counts sum, tails take the
// worst-shard p999 (the operator cares about the slowest shard, and
// per-window histograms are not retained to re-aggregate exactly).
func writeTop(w io.Writer, out *scen.Outcome) {
	sp := out.Spec
	merged := map[int]*slo.WindowStat{}
	maxIdx := -1
	for _, hist := range out.SLOHistory {
		for i := range hist {
			ws := &hist[i]
			m, ok := merged[ws.Index]
			if !ok {
				cp := *ws
				merged[ws.Index] = &cp
				if ws.Index > maxIdx {
					maxIdx = ws.Index
				}
				continue
			}
			m.Count += ws.Count
			m.Good += ws.Good
			m.Errors += ws.Errors
			if ws.P999NS > m.P999NS {
				m.P999NS = ws.P999NS
			}
			if ws.MaxNS > m.MaxNS {
				m.MaxNS = ws.MaxNS
			}
		}
	}
	fmt.Fprintf(w, "slo top: %s seed %d — %gms windows, %d shards, %d rules\n",
		sp.Name, out.Seed, sp.SLO.WindowMS, len(out.SLOHistory), len(sp.SLO.Rules))
	fmt.Fprintf(w, "%4s %10s %8s %12s %10s %6s  %s\n",
		"win", "start", "reqs", "goodput r/s", "p999 ms", "err%", "incidents")
	for idx := 0; idx <= maxIdx; idx++ {
		ws, ok := merged[idx]
		if !ok {
			continue
		}
		var open []string
		for i := range out.Incidents {
			inc := &out.Incidents[i]
			if inc.OpenAt <= ws.End && (inc.Open || ws.End <= inc.CloseAt) {
				open = append(open, fmt.Sprintf("%s/%s", inc.Subject, inc.Rule))
			}
		}
		fmt.Fprintf(w, "%4d %10.1f %8d %12.0f %10.4f %6.2f  %s\n",
			idx, float64(ws.Start)/1e6, ws.Count, ws.GoodputRPS(),
			float64(ws.P999NS)/1e6, ws.ErrorRate()*100, strings.Join(open, " "))
	}
	if len(out.Incidents) > 0 {
		fmt.Fprintf(w, "incidents:\n")
		for i := range out.Incidents {
			inc := &out.Incidents[i]
			closeCol := "open"
			if !inc.Open {
				closeCol = fmt.Sprintf("%.1fms", float64(inc.CloseAt)/1e6)
			}
			cause := inc.Cause
			if cause == "" {
				cause = "-"
			}
			fmt.Fprintf(w, "  [%s] %s %s: %.1fms -> %s cause=%s\n",
				inc.Severity, inc.Subject, inc.Rule,
				float64(inc.OpenAt)/1e6, closeCol, cause)
		}
	}
}

// runAnalyze implements `qsctl analyze run.jsonl`.
func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qsctl analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "slowest migrations to list")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: qsctl analyze [-top N] run.jsonl")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return 1
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return 1
	}
	obs.Analyze(recs).Print(stdout, *top)
	return 0
}

// runFiller reproduces a short Figure-1-style window: anti-phased
// antagonists and a migrating filler pool.
func runFiller(sys *core.System, horizon sim.Time, _ io.Writer) error {
	k := sys.K
	period := 20 * time.Millisecond
	for i, m := range sys.Cluster.Machines() {
		a := &workload.Antagonist{Machine: m, Period: period, Busy: period / 2,
			Offset: time.Duration(i) * period / 2, Cores: m.Cores()}
		a.Start(k)
	}
	pool, err := sys.NewPool("filler", 1, 8, 1, 8)
	if err != nil {
		return err
	}
	var feed func(cp *core.ComputeProclet)
	feed = func(cp *core.ComputeProclet) {
		cp.Run(func(tc *core.TaskCtx) {
			tc.Compute(50 * time.Microsecond)
			feed(tc.ComputeProclet())
		})
	}
	for _, m := range pool.Members() {
		feed(m)
		feed(m)
	}
	k.RunUntil(horizon)
	return nil
}

// runPipeline runs a short preprocessing pipeline over a sharded
// vector into a sharded queue.
func runPipeline(sys *core.System, horizon sim.Time, _ io.Writer) error {
	vec, err := sharded.NewVector[workload.Image](sys, "images", sharded.Options{MaxShardBytes: 8 << 20, AutoAdapt: true})
	if err != nil {
		return err
	}
	queue, err := sharded.NewQueue[workload.Batch](sys, "batches", sharded.Options{MaxShardBytes: 8 << 20})
	if err != nil {
		return err
	}
	gpus := workload.NewGPUPool(queue, 0, time.Millisecond, 8)
	gpus.Start(sys.K)
	pool, err := sys.NewPool("preproc", 1, 8, 1, 16)
	if err != nil {
		return err
	}
	sys.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			im := workload.Image{Idx: i, Bytes: 256 << 10, CPU: 2 * time.Millisecond}
			if err := vec.PushBack(p, 0, im, im.Bytes); err != nil {
				return
			}
		}
		it := vec.Iter(16)
		for {
			im, ok, err := it.Next(p, 0)
			if err != nil || !ok {
				break
			}
			img := im
			pool.Run(func(tc *core.TaskCtx) {
				tc.Compute(img.CPU)
				queue.Push(tc.Proc(), tc.Machine(), workload.Batch{Seq: img.Idx, Bytes: 16 << 10}, 16<<10)
			})
		}
	})
	sys.K.RunUntil(horizon)
	gpus.Stop()
	return nil
}

// runGPU exercises the GPU robustness plane: checkpointed trainers on
// a heterogeneous device mix ride out a fatal XID, a thermal throttle
// with ECC stutter, and a spot reclaim/return cycle, with the fleet
// watcher restoring, re-dispatching, and evacuating as each fault
// lands.
func runGPU(sys *core.System, horizon sim.Time, out io.Writer) error {
	for _, m := range sys.Cluster.Machines() {
		m.AddGPUs(
			cluster.GPUConfig{Count: 2, MemBytes: 1 << 30, LinkBandwidth: 16_000_000_000,
				Class: "a100", Speed: 1},
			cluster.GPUConfig{Count: 1, MemBytes: 1 << 30, LinkBandwidth: 16_000_000_000,
				Class: "h100", Speed: 2},
		)
	}
	fleet := gpu.NewFleetConfig(sys, "trainers", gpu.Config{
		Period: time.Millisecond,
		Checkpoint: gpu.CheckpointConfig{
			DeltaBytes:    256 << 10,
			SnapshotEvery: 50,
			Home:          gpu.AutoHome,
		},
	})
	var trainers []*gpu.Proclet
	for i := 0; i < 3; i++ {
		gp, err := fleet.Add(fmt.Sprintf("trainer-%d", i), 128<<20, time.Millisecond)
		if err != nil {
			return err
		}
		trainers = append(trainers, gp)
		sys.K.Spawn("driver", func(p *sim.Proc) {
			for p.Now() < horizon {
				err := gp.Step(p, gp.Device().Machine.ID, 1<<20)
				if err == nil {
					continue
				}
				if errors.Is(err, proclet.ErrDead) {
					return
				}
				if gp.AwaitPlaced(p) != nil {
					return
				}
			}
		})
	}
	fleet.Start()
	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	in.HookGPU = func(cluster.MachineID, int) { fleet.Kick() }
	at := func(frac float64) sim.Time { return sim.Time(float64(horizon) * frac) }
	d0, d1, d2 := trainers[0].Device(), trainers[1].Device(), trainers[2].Device()
	in.Install(fault.Schedule{
		{At: at(0.15), Op: fault.OpGPUReclaim, A: d2.Machine.ID, Gpu: d2.Index},
		{At: at(0.25), Op: fault.OpGPUXid, A: d0.Machine.ID, Gpu: d0.Index, Xid: 79},
		{At: at(0.45), Op: fault.OpGPUThrottle, A: d1.Machine.ID, Gpu: d1.Index,
			Factor: 4, StallEvery: 8, Stall: 2 * time.Millisecond},
		{At: at(0.6), Op: fault.OpGPUReturn, A: d2.Machine.ID, Gpu: d2.Index},
		{At: at(0.8), Op: fault.OpGPUHeal, A: d1.Machine.ID, Gpu: d1.Index},
	})
	sys.K.RunUntil(horizon)
	fleet.Stop()
	for _, gp := range trainers {
		fmt.Fprintf(out, "%s: %d steps (%d checkpointed), now on %v\n",
			gp.Name(), gp.CompletedSteps(), gp.Checkpoints.Value(), gp.Device())
	}
	fmt.Fprintf(out, "faults: %d xid, %d throttle, %d reclaim, %d heal\n",
		in.GPUXids.Value(), in.GPUThrottles.Value(), in.GPUReclaims.Value(), in.GPUHeals.Value())
	fmt.Fprintf(out, "fleet: %d restores, %d evacuations, %d mitigations (mean %.1f ms), %d stranded polls, %d steps lost\n\n",
		fleet.Restores.Value(), fleet.Evacuations.Value(), fleet.Mitigations.Value(),
		fleet.MigrationLatency.Mean()*1000, fleet.Stranded.Value(), fleet.LostSteps())
	return nil
}

// runReplicas replicates a small store fleet at RF=2, drives writers
// through a primary crash, and dumps each replica set's status — the
// view an operator would use to answer "is my data safe and who is
// serving it?".
func runReplicas(sys *core.System, horizon sim.Time, out io.Writer) error {
	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	sys.AttachInjector(in)
	// Monitor and writers live on m0; primaries on m1..m3; m1 crashes
	// mid-run and restarts late.
	rm := sys.EnableReplicationPlane(replication.Config{}, 0)
	const stores = 6
	mps, err := fleet.PlaceStores(sys, "store-%d", stores, 1, 2)
	if err != nil {
		return err
	}
	in.Install(fault.Schedule{
		{At: sim.Time(float64(horizon) * 0.3), Op: fault.OpCrash, A: 1},
		{At: sim.Time(float64(horizon) * 0.7), Op: fault.OpRestart, A: 1},
	})
	for w := 0; w < 8; w++ {
		w := w
		sys.K.Spawn(fmt.Sprintf("writer-%d", w), func(p *sim.Proc) {
			for op := 0; p.Now() < horizon; op++ {
				mps[(w+op)%stores].Put(p, 0, uint64(w)<<32|uint64(op), op, 4<<10)
				p.Sleep(100 * time.Microsecond)
			}
		})
	}
	sys.K.RunUntil(horizon)

	fmt.Fprintln(out, "-- replica sets --")
	det := rm.Detector()
	for _, st := range rm.Status() {
		lease := "EXPIRED"
		if st.LeaseValid {
			lease = fmt.Sprintf("valid until %v", st.LeaseExpiry)
		}
		fmt.Fprintf(out, "%-10s primary id=%-4d m%d  lease %-22s log seq %d\n",
			st.Name, st.PrimaryID, st.PrimaryMachine, lease, st.Seq)
		for _, b := range st.Backups {
			fmt.Fprintf(out, "           backup  id=%-4d m%d  applied %d (lag %d)\n",
				b.ID, b.Machine, b.Applied, b.Lag)
		}
	}
	fmt.Fprintf(out, "\n-- durability plane --\n")
	fmt.Fprintf(out, "heartbeats sent %d, missed %d; suspects %d, confirms %d, false suspects %d\n",
		det.HeartbeatsSent.Value(), det.HeartbeatsMissed.Value(),
		det.Suspects.Value(), det.Confirms.Value(), det.FalseSuspects.Value())
	fmt.Fprintf(out, "promotions %d, deposes %d, resyncs %d, backup drops %d; batches %d carrying %d records\n",
		rm.Promotions.Value(), rm.Deposes.Value(), rm.Resyncs.Value(), rm.BackupDrops.Value(),
		rm.ReplBatches.Value(), rm.ReplRecords.Value())
	if n := rm.PromoteLatency.Count(); n > 0 {
		fmt.Fprintf(out, "promote latency: mean %.3f ms, max %.3f ms over %d promotions\n",
			rm.PromoteLatency.Mean()*1000, rm.PromoteLatency.Max()*1000, n)
	}
	fmt.Fprintln(out)
	return nil
}

// runServe drives an ext-serve-style open-loop request stream against a
// sharded map: two tenants' aggregate arrival processes (a diurnal web
// tenant and a flash-crowding batch tenant) stand in for tens of
// thousands of clients, Zipfian samplers skew key popularity, and a
// jittered antagonist steals cores mid-run so the reported tail has
// real contention in it. It prints the latency histogram summary an
// operator would read: per-tenant load, goodput, timeout rate, and
// p50/p99/p999.
func runServe(sys *core.System, horizon sim.Time, out io.Writer) error {
	const (
		objects  = 4096
		objBytes = 512
		batchMax = 32
		servers  = 4
	)
	poll := 20 * time.Microsecond
	deadline := sim.Time(time.Millisecond)

	kv, err := sharded.NewMap[uint64, int](sys, "kv", sharded.Options{MaxShardBytes: 1 << 20})
	if err != nil {
		return err
	}

	hist := metrics.NewLogHistogram("serve.latency")
	var queue load.Queue
	inj := load.NewInjector(sys.K, 250*time.Microsecond, queue.Push)
	step := time.Duration(horizon) / 200
	web := inj.AddTenant("web",
		load.Sampled(horizon, step, load.Diurnal(40_000, 0.4, time.Duration(horizon)/2)),
		load.NewZipf(objects, 0.99))
	spike := load.Spike(sim.Time(float64(horizon)*0.5),
		time.Duration(horizon)/20, time.Duration(horizon)/10, time.Duration(horizon)/20, 4)
	diur := load.Diurnal(15_000, 0.2, time.Duration(horizon)/2)
	batch := inj.AddTenant("batch",
		load.Sampled(horizon, step, func(t sim.Time) float64 { return diur(t) * spike(t) }),
		load.NewZipf(objects, 0.75))

	// The antagonist's busy windows collide with serving on m1; Jitter
	// decorrelates them from the diurnal phase.
	ant := &workload.Antagonist{Machine: sys.Cluster.Machine(1),
		Period: time.Duration(horizon) / 10, Busy: time.Duration(horizon) / 40,
		Cores: 4, Jitter: time.Duration(horizon) / 100, Rng: rand.New(rand.NewSource(7))}
	ant.Start(sys.K)

	var served, timeouts uint64
	sys.K.Spawn("setup", func(p *sim.Proc) {
		for r := uint64(0); r < objects; r++ {
			if err := kv.Put(p, 0, load.ScrambleKey(r), int(r), objBytes); err != nil {
				return
			}
		}
		inj.Start(p.Now(), horizon)
		for s := 0; s < servers; s++ {
			sys.K.Spawn(fmt.Sprintf("server-%d", s), func(p *sim.Proc) {
				keys := make([]uint64, 0, batchMax)
				queue.Serve(p, horizon, poll, batchMax, func(reqs []load.Request) {
					keys = keys[:0]
					for _, r := range reqs {
						keys = append(keys, r.Key)
					}
					if _, _, err := kv.GetBatch(p, 0, keys); err != nil {
						return // unserved: the batch shows as generated - served
					}
					now := p.Now()
					for _, r := range reqs {
						lat := int64(now - r.At)
						hist.Record(lat)
						served++
						if lat > int64(deadline) {
							timeouts++
						}
					}
				})
			})
		}
	})
	sys.K.RunUntil(horizon)

	fmt.Fprintln(out, "-- serving plane --")
	fmt.Fprintf(out, "tenants: %s %d reqs, %s %d reqs over %d windows\n",
		inj.TenantName(web), inj.Generated(web),
		inj.TenantName(batch), inj.Generated(batch), inj.Windows())
	goodput := float64(served-timeouts) / (float64(horizon) / float64(time.Second))
	fmt.Fprintf(out, "generated %d, served %d, timeouts %d (deadline %v), goodput %.0f req/s\n",
		inj.TotalGenerated(), served, timeouts, time.Duration(deadline), goodput)
	fmt.Fprintf(out, "%s\n\n", hist)
	return nil
}

// runChurn exercises split/merge on a sharded map under insert/delete
// waves, with a bursty co-tenant on m0 that periodically claims most of
// the machine's memory. Each burst drives m0 over the memory high
// water, so the fast-path reactor evacuates shards — producing the
// pressure → migration causal chains the trace exporters capture.
func runChurn(sys *core.System, horizon sim.Time, _ io.Writer) error {
	m, err := sharded.NewMap[int, []byte](sys, "kv", sharded.Options{MaxShardBytes: 1 << 20, AutoAdapt: true})
	if err != nil {
		return err
	}
	m0 := sys.Cluster.Machine(0)
	sys.K.Every(sim.Time(10*time.Millisecond), 20*time.Millisecond, func() bool {
		// Claim all but 2 MiB of whatever is free: pressure spikes well
		// past the high water, and only evacuating shards relieves it.
		tenant := m0.MemFree() - (2 << 20)
		if tenant > 0 && m0.AllocMem(tenant) == nil {
			sys.K.After(8*time.Millisecond, func() { m0.FreeMem(tenant) })
		}
		return true
	})
	sys.K.Spawn("churner", func(p *sim.Proc) {
		for wave := 0; ; wave++ {
			for i := 0; i < 512; i++ {
				if err := m.Put(p, 0, wave*10000+i, nil, 8<<10); err != nil {
					return
				}
			}
			for i := 0; i < 480; i++ {
				if err := m.Delete(p, 0, wave*10000+i); err != nil {
					return
				}
			}
			p.Sleep(time.Millisecond)
		}
	})
	sys.K.RunUntil(horizon)
	return nil
}
