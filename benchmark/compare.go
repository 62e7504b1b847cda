package main

// --compare A.json B.json: for every workload and end-to-end metric,
// both medians, their ratio with its base, and a verdict against the
// metric's bound. For the traced runs the two sets share, every exact
// per-layer value must read the same.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts. Unresolved means the run-to-run spread is wider than the
// bound, so a difference within the bound cannot be told from noise.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one metric's values in set B against set A.
func judge(def metricDef, a, b []float64) (medA, medB float64, verdict string) {
	_, medA, _ = quartiles(a)
	_, medB, _ = quartiles(b)
	worse := medB > medA*(1+def.Bound)
	if def.Better == "higher" {
		worse = medB < medA*(1-def.Bound)
	}
	switch {
	case worse:
		verdict = verdictWorse
	case spread(a) > def.Bound || spread(b) > def.Bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictOK
	}
	return medA, medB, verdict
}

func readSet(path string) (setFile, error) {
	var s setFile
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets prints the comparison and returns the exit code: 1 when
// any metric is worse, a run was incorrect or an exact value differs.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return writeComparison(stdout, a, b)
}

func writeComparison(w io.Writer, a, b setFile) int {
	status := 0
	fmt.Fprintf(w, "A: %v\nB: %v\n", a.Host, b.Host)
	fmt.Fprintf(w, "%-16s %-12s %14s %14s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "spread A", "spread B", "bound", "verdict")
	for _, wl := range workloadDefs {
		for _, def := range endToEnd {
			va, okA := a.valuesOf(wl.Name, def.Name)
			vb, okB := b.valuesOf(wl.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			medA, medB, verdict := judge(def, va, vb)
			if !okA || !okB {
				verdict += " (incorrect run)"
				status = 1
			}
			if verdict == verdictWorse {
				status = 1
			}
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %9.4f %7.2f%% %7.2f%% %5.0f%%  %s\n",
				wl.Name, def.Name, medA, medB, medB/medA, 100*spread(va), 100*spread(vb), 100*def.Bound, verdict)
		}
	}

	// Exact values: the traced runs of one workload and seed must agree.
	checked, differ := 0, 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Trace != 1 || rb.Trace != 1 || ra.Workload != rb.Workload || ra.Seed != rb.Seed {
				continue
			}
			for _, def := range perLayer {
				if !def.Exact {
					continue
				}
				checked++
				if x, y := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value; x != y {
					differ++
					fmt.Fprintf(w, "exact value differs: %s seed %d %s: %v vs %v\n", ra.Workload, ra.Seed, def.Name, x, y)
				}
			}
		}
	}
	fmt.Fprintf(w, "exact per-layer values: %d compared, %d differ\n", checked, differ)
	if differ > 0 {
		status = 1
	}
	return status
}
