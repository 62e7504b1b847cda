// Command qsctl is the operator's tool for the simulated fleet. It has
// four verbs and one way in — a scenario file (see internal/scenario and
// the scenarios/ library): a fleet, a workload mix, a timed fault/load
// schedule and assertions, compiled onto the partitioned simulation
// kernel.
//
// Usage:
//
//	qsctl run <scenario.yaml> [-seed N] [-par P] [-report out.json] [-trace-out out.txt] [-flight-out dump.txt] [-no-assert]
//	qsctl validate <scenario.yaml|dir>...
//	qsctl top <scenario.yaml> [-seed N] [-par P]
//	qsctl analyze [-top N] run.jsonl
//
// `qsctl run` executes the file. The run is seeded and deterministic —
// at a fixed seed the report is byte-identical at any -par worker
// count. A failed assertion exits 1; -report writes the
// machine-readable verdict, -trace-out the merged control-plane trace,
// and -flight-out the flight dump — the last 64 control-plane events
// of each shard's log, merged and shard-tagged — whenever an assertion
// fails or an incident opened during the run; CI uploads these dumps as
// failure artifacts.
//
// `qsctl validate` parses and semantically checks files without running
// them: everything `run` would reject before its first event, from an
// unknown field to a run too large to finish. A directory stands for
// the *.yaml files under it. Every file gets one line — `ok`, its name
// and description on stdout, or the located error on stderr — and the
// exit status is 2 if any file was rejected, else 1 if any could not be
// read.
//
// `qsctl top` replays a scenario with per-window SLO history retained
// and renders the windowed serving state an operator's dashboard would
// show: per-window goodput, tail latency, error rate, and which
// burn-rate rules had an open incident during that window. It needs an
// `slo:` block in the scenario file.
//
// `qsctl analyze` digests a compact span/sample record stream into
// slowest-migration, per-method latency and per-machine utilization
// reports. The traced experiments produce such streams:
// `quicksand-bench -trace-dir D fig1 ext-failover ext-serve
// ext-memharvest` writes D/<id>.jsonl beside D/<id>.trace.json (Chrome
// trace-event JSON; open in Perfetto or chrome://tracing).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/obs"
	"repro/internal/obs/slo"
	scen "repro/internal/scenario"
)

const usage = `usage: qsctl <verb> [arguments]

  run       execute a scenario file and print its report
  validate  parse and check scenario files or directories without running them
  top       replay a scenario and render its per-window SLO state
  analyze   digest a trace record stream (.jsonl) from quicksand-bench -trace-dir

Run "qsctl <verb> -h" for a verb's flags.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, for tests. Returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runScenarioFile(args[1:], stdout, stderr)
		case "validate":
			return runValidate(args[1:], stdout, stderr)
		case "top":
			return runTop(args[1:], stdout, stderr)
		case "analyze":
			return runAnalyze(args[1:], stdout, stderr)
		}
	}
	fmt.Fprint(stderr, usage)
	return 2
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
	sp, code = parseFile(file, stderr)
	return file, sp, code
}

// parseFile reads and parses one scenario file. On failure sp is nil,
// stderr has one line saying why, and code is the exit status: 1 for a
// file that cannot be read, 2 for one Parse rejects.
func parseFile(file string, stderr io.Writer) (sp *scen.Spec, code int) {
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %v\n", err)
		return nil, 1
	}
	sp, err = scen.Parse(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "qsctl: %s: %v\n", file, err)
		return nil, 2
	}
	return sp, 0
}

// runValidate implements `qsctl validate <file|dir>...`: parseFile over
// every named file and every *.yaml under every named directory, in
// argument then lexical order. No file stops the sweep; the worst
// status wins.
func runValidate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qsctl validate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: qsctl validate <scenario.yaml|dir>...")
		return 2
	}
	worst := 0
	for _, root := range fs.Args() {
		quiet := true // nothing printed about root yet
		filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				fmt.Fprintf(stderr, "qsctl: %v\n", err)
				quiet, worst = false, max(worst, 1)
				return nil
			}
			if d.IsDir() || path != root && filepath.Ext(path) != ".yaml" {
				return nil
			}
			sp, code := parseFile(path, stderr)
			if sp != nil {
				fmt.Fprintf(stdout, "ok  %s  %s — %s\n", path, sp.Name, sp.Description)
			}
			quiet, worst = false, max(worst, code)
			return nil
		})
		if quiet {
			fmt.Fprintf(stderr, "qsctl: %s: no *.yaml files\n", root)
			worst = max(worst, 1)
		}
	}
	return worst
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
	if *top < 0 {
		fmt.Fprintf(stderr, "qsctl: -top %d: the number of migrations to list cannot be negative\n", *top)
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
