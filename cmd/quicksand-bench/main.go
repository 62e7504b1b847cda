// Command quicksand-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	quicksand-bench [-scale full|test] [-par N] [experiment ...]
//	quicksand-bench -list
//
// With no experiment arguments it runs the whole suite. Experiment IDs
// and what they reproduce are described in DESIGN.md's experiment
// index; `-list` prints them.
//
// -par N bounds the host workers used to run experiments concurrently,
// and each experiment's own workers: the independent configurations it
// fans out, or the shard workers of a partitioned fleet (ext-scale,
// ext-serve); 0 means one worker per host core. Every simulation is
// deterministic and results are always printed in request order, so the
// output is identical at any -par value.
//
// -cpuprofile / -memprofile write pprof profiles of the run for
// `go tool pprof`.
//
// -json additionally writes one BENCH_<id>.json file per experiment
// with the kernel events the run processed, its heap allocations and
// its values. The allocation count is a process-wide delta, so with
// -json the experiments run one after another, each from an empty run
// memo, and each record counts only its own runs, whatever ran before
// it; -par still bounds each experiment's own workers. A record holds
// no host time.
//
// -seed N offsets the RNG seeds of the seed-swept experiments (fig2,
// ext-chaos, ext-failover, ext-gpufleet, ext-scale, ext-serve). Runs at
// the same -seed must produce byte-identical output at any -par — CI's
// seed-sweep job compares -par 1 with -par 4. 0 (the default) keeps the
// committed seeds that the BENCH_*.json baselines were recorded at.
//
// -trace-dir DIR enables causal span tracing plus resource telemetry
// on the traced experiments (fig1's quicksand mode, ext-failover's
// RF=2 crash run, ext-memharvest, ext-serve) and writes each run as
// Chrome trace-event JSON to DIR/<id>.trace.json, the file Perfetto
// opens and `qsctl analyze` reads (ext-serve also writes its unsampled
// trace to DIR/ext-serve.full.trace.json). Telemetry sampling adds
// kernel events, so do not combine -trace-dir with runs whose event
// counts feed the bench baselines.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/runpar"
)

// benchStats is the machine-readable record emitted by -json for one
// experiment run. Values carries the experiment's machine-readable
// results (goodput, objects lost, failover latency, ...) so benchdiff
// can gate behavioural guarantees, not just host cost.
type benchStats struct {
	ID     string             `json:"id"`
	Events uint64             `json:"events_processed"`
	Allocs uint64             `json:"allocs"`
	Values map[string]float64 `json:"values,omitempty"`
}

// writeBenchJSON writes st to BENCH_<id>.json under dir and returns
// the path written. A value JSON cannot hold (NaN, ±Inf) is an error
// naming its key (the first by name), and nothing is written.
func writeBenchJSON(dir string, st benchStats) (string, error) {
	bad := ""
	for k, v := range st.Values {
		if (math.IsNaN(v) || math.IsInf(v, 0)) && (bad == "" || k < bad) {
			bad = k
		}
	}
	if bad != "" {
		return "", fmt.Errorf("value %s is %v, which JSON cannot hold", bad, st.Values[bad])
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+st.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, for tests. It returns
// the process exit code, so every exit after the CPU profile starts
// passes through the deferred stop that writes the profile out.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("quicksand-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "full", "experiment scale: full (paper) or test (CI)")
	list := fs.Bool("list", false, "list experiments and exit")
	csv := fs.Bool("csv", false, "emit plot-ready CSV time series instead of tables (fig1/fig3)")
	par := fs.Int("par", 0, "max concurrent host workers for experiments (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "write BENCH_<id>.json per experiment (events, allocs, values)")
	seed := fs.Int64("seed", 0, "seed offset for seed-swept experiments (0 = committed seeds)")
	traceDir := fs.String("trace-dir", "", "export the traces of fig1, ext-failover, ext-memharvest and ext-serve (.trace.json) to this directory")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := fs.String("memprofile", "", "write an allocation profile to `file` at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range experiments.List() {
			fmt.Fprintf(stdout, "%-15s %s\n", id, experiments.Title(id))
		}
		return 0
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "full":
		scale = experiments.FullScale
	case "test":
		scale = experiments.TestScale
	default:
		fmt.Fprintf(stderr, "quicksand-bench: unknown scale %q (want full or test)\n", *scaleFlag)
		return 2
	}

	if *memprofile != "" {
		// Match `go test -memprofile`: sample every 4 KiB allocated
		// instead of the 512 KiB default, so short runs yield a usable
		// allocation profile. Must be set before the first allocation
		// of interest.
		runtime.MemProfileRate = 4096
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "quicksand-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "quicksand-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "quicksand-bench: %v\n", err)
				code = 1
			}
		}()
	}

	experiments.SetParallelism(*par)
	experiments.SetBaseSeed(*seed)
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "quicksand-bench: %v\n", err)
			return 1
		}
		experiments.SetTraceDir(*traceDir)
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.List()
	}

	// Run experiments concurrently but print strictly in request order.
	// -json measures each one with process-wide counters, so it runs
	// them one at a time.
	type outcome struct {
		res *experiments.Result
		err error
		st  benchStats
	}
	expPar := *par
	if *jsonOut {
		expPar = 1
	}
	outs := runpar.Map(len(ids), expPar, func(i int) outcome {
		var m0 runtime.MemStats
		if *jsonOut {
			// Empty the run memo, so a record counts its own runs
			// whatever ran before it (abl-sched shares fig1's).
			experiments.SetParallelism(*par)
			runtime.ReadMemStats(&m0)
		}
		res, err := experiments.Run(ids[i], scale)
		o := outcome{res: res, err: err}
		if *jsonOut && err == nil {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			o.st = benchStats{
				ID:     ids[i],
				Events: res.EventsProcessed,
				Allocs: m1.Mallocs - m0.Mallocs,
				Values: res.Values,
			}
		}
		return o
	})

	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if outs[i].err != nil {
			fmt.Fprintf(stderr, "quicksand-bench: %s: %v\n", id, outs[i].err)
			code = 1
			continue
		}
		if *jsonOut {
			path, err := writeBenchJSON(".", outs[i].st)
			if err != nil {
				fmt.Fprintf(stderr, "quicksand-bench: %s: %v\n", id, err)
				code = 1
			} else {
				fmt.Fprintf(stderr, "quicksand-bench: wrote %s\n", path)
			}
		}
		if *csv {
			outs[i].res.WriteCSV(stdout)
			continue
		}
		outs[i].res.Print(stdout)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "quicksand-bench: %v\n", err)
			return 1
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "quicksand-bench: %v\n", err)
			return 1
		}
	}
	return code
}
