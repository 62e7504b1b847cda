// Command benchmark measures the simulator's host cost on four sized
// workloads while checking that its simulated output stays put.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	    one run; prints a report, then one JSON object as the last line
//	benchmark [--runs K] [--seed N] [--seconds S] [--out set.json]
//	    every workload, each run in its own child process: K untraced
//	    runs at seeds N..N+K-1 and one traced run at seed N
//	benchmark --compare A.json B.json
//	    judge set B against set A by the bounds of BENCHMARK.json
//
// See README.md in this directory for the metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run once in this process; empty runs them all, one child process per run")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 25, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced pass reporting the per-layer metrics; 0: end-to-end metrics")
	scaleName := fs.String("scale", "full", "full, or smoke for a seconds-long self-test")
	runs := fs.Int("runs", 1, "untraced runs per workload when running them all")
	out := fs.String("out", "", "write the set of runs here as JSON, for --compare")
	traceDir := fs.String("trace-dir", "out", "directory the traced pass writes trace-<workload>.json to")
	compare := fs.Bool("compare", false, "compare two set files: --compare A.json B.json")
	child := fs.Bool("child-rep", false, "internal: set --workload up, run one rep, print the sample as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Every rep runs on one P. The simulator at one worker is one thread
	// of control handing off between goroutines; a second P turns many of
	// those handoffs into cross-thread wakeups, which on the 2-core VM
	// this was written on cost the serving workloads a fifth more wall
	// time and a rep-to-rep jitter of 8% where one P shows 2%. The traced
	// pass reports that cost as sim.gomaxprocs2_wall_ratio.
	runtime.GOMAXPROCS(timedProcs)
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: --compare takes two set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleName]
	if !ok || fs.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see --help")
		return 2
	}

	if *workload == "" {
		return runSet(setConfig{seed: *seed, seconds: *seconds, runs: *runs, scale: sc.name, out: *out, traceDir: *traceDir}, stdout, stderr)
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scale: sc, traceDir: *traceDir,
	}
	if *child {
		if err := childRep(cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintln(stdout, hostOf())
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// hostInfo records where a number was measured, so it means something.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GOGC       string `json:"gogc"`
	SimWorkers int    `json:"sim_workers"`
}

func hostOf() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		SimWorkers: simWorkers,
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host num_cpu %d gomaxprocs %d go %s kernel %s gogc %s sim_workers %d",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.GOGC, h.SimWorkers)
}

type setConfig struct {
	seed     int64
	seconds  int
	runs     int
	scale    string
	out      string
	traceDir string
}

// runRecord is one run of a set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

// setFile is what --out writes and --compare reads.
type setFile struct {
	Host    hostInfo    `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Scale   string      `json:"scale"`
	Runs    []runRecord `json:"runs"`
}

// runSet runs every workload: cfg.runs untraced runs at consecutive
// seeds and one traced run, each in a child process of its own so that
// heap state and peak memory never carry from one run to the next.
func runSet(cfg setConfig, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	set := setFile{Host: hostOf(), Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale}
	fmt.Fprintln(stdout, set.Host)
	fmt.Fprintf(stdout, "seed %d seconds %d scale %s runs %d\n", cfg.seed, cfg.seconds, cfg.scale, cfg.runs)
	status := 0
	for _, wl := range workloadDefs {
		for i := 0; i <= cfg.runs; i++ {
			rec := runRecord{Workload: wl.Name, Seed: cfg.seed + int64(i)}
			if i == cfg.runs { // the traced run
				rec.Seed, rec.Trace = cfg.seed, 1
			}
			cmd := exec.Command(exe,
				"--workload", wl.Name, "--seed", strconv.FormatInt(rec.Seed, 10),
				"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(rec.Trace),
				"--scale", cfg.scale, "--trace-dir", cfg.traceDir)
			cmd.Stderr = stderr
			report, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d trace %d: %v\n", wl.Name, rec.Seed, rec.Trace, err)
				return 1
			}
			report = bytes.TrimRight(report, "\n")
			cut := bytes.LastIndexByte(report, '\n') + 1
			if err := json.Unmarshal(report[cut:], &rec.runResult); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: last line is not a result: %v\n", wl.Name, err)
				return 1
			}
			if rec.Trace == 1 {
				stdout.Write(report[:cut]) // the per-layer table and span times
			}
			if !rec.Correct {
				status = 1
			}
			set.Runs = append(set.Runs, rec)
		}
		printWorkload(stdout, set, wl.Name)
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return status
}

// valuesOf returns one end-to-end metric's values over a workload's
// untraced runs, and whether every one of those runs was correct.
func (s setFile) valuesOf(workload, metric string) (values []float64, correct bool) {
	correct = true
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		values = append(values, r.Metrics[metric].Value)
		correct = correct && r.Correct
	}
	return values, correct
}

// printWorkload prints one workload's end-to-end metrics over its runs.
func printWorkload(w io.Writer, set setFile, workload string) {
	fmt.Fprintf(w, "== %s\n", workload)
	for _, def := range endToEnd {
		values, correct := set.valuesOf(workload, def.Name)
		q1, med, q3 := quartiles(values)
		fmt.Fprintf(w, "%-12s %14.6g %-5s n=%d q1=%.6g q3=%.6g spread %.2f%% of bound %.0f%% correct %v\n",
			def.Name, med, def.Unit, len(values), q1, q3, 100*spread(values), 100*def.Bound, correct)
	}
}
