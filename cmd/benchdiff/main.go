// Command benchdiff compares BENCH_<id>.json cost records produced by
// `quicksand-bench -json` against a committed baseline, and fails when
// a candidate regresses.
//
// Usage:
//
//	benchdiff [-tol 0.10] baselineDir candidateDir id...
//
// For each experiment ID it reads BENCH_<id>.json from both
// directories and compares:
//
//   - events_processed: must equal the baseline. Kernel event counts
//     are deterministic, so any change means the simulation's behaviour
//     changed, faster or slower.
//   - values: every key the baseline records must be in the candidate
//     with the same value, whatever its name — the simulation is
//     deterministic, so a drift of any size is a behaviour change, and
//     a missing key means the experiment's metric keys changed. Keys
//     only the candidate has are new metrics and pass until the
//     baseline is regenerated.
//   - allocs: must stay within -tol of the baseline, the one
//     tolerance, on both sides. Above is an allocation regression; below
//     is a gain the record does not hold yet, which fails with a message
//     to re-record the baseline, so the next regression cannot hide in
//     the slack. Heap allocation counts are exact only for -par 1 runs,
//     which is what CI records.
//
// Missing or malformed records fail with a message saying how to
// regenerate them (a baseline with zero events is treated as
// malformed), and a record whose embedded id is missing or doesn't
// match its filename is rejected as stale.
//
// Exit status is 1 if any comparison fails, 2 on usage errors.
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
	"sort"
)

// benchStats mirrors the record written by quicksand-bench -json.
type benchStats struct {
	ID     string             `json:"id"`
	Events uint64             `json:"events_processed"`
	Allocs uint64             `json:"allocs"`
	Values map[string]float64 `json:"values,omitempty"`
}

// readStats reads BENCH_<id>.json from dir and decodes it.
func readStats(dir, id string) (benchStats, error) {
	path := filepath.Join(dir, "BENCH_"+id+".json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return benchStats{}, fmt.Errorf(
			"%s does not exist — record it with `cd %s && quicksand-bench -json -par 1 %s` (records land in the working directory)",
			path, dir, id)
	}
	if err != nil {
		return benchStats{}, err
	}
	st, err := decodeStats(data, id)
	if err != nil {
		return st, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// decodeStats decodes the record of experiment id. A record that is not
// JSON fails with the byte where decoding stopped.
func decodeStats(data []byte, id string) (benchStats, error) {
	var st benchStats
	if err := json.Unmarshal(data, &st); err != nil {
		return st, located(err)
	}
	if st.ID != id {
		return st, fmt.Errorf("records experiment %q, not %q — stale or misnamed file", st.ID, id)
	}
	if st.Events == 0 {
		return st, errors.New(
			"no events_processed — malformed or truncated record; regenerate it with `quicksand-bench -json`")
	}
	return st, nil
}

// located prefixes a JSON decoding error with the byte offset it names.
func located(err error) error {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		return fmt.Errorf("byte %d: %w", syn.Offset, err)
	case errors.As(err, &typ):
		return fmt.Errorf("byte %d: %w", typ.Offset, err)
	}
	return err
}

// relDelta returns (cand-base)/base; +0.10 means 10% above baseline.
func relDelta(base, cand uint64) float64 {
	if base == 0 {
		if cand == 0 {
			return 0
		}
		return 1
	}
	return float64(cand)/float64(base) - 1
}

// compare checks one experiment's candidate stats against its baseline
// and returns human-readable failure reasons (empty = pass).
func compare(base, cand benchStats, tol float64) []string {
	var fails []string
	if cand.Events != base.Events {
		fails = append(fails, fmt.Sprintf(
			"events_processed %d -> %d: deterministic behaviour changed", base.Events, cand.Events))
	}
	// Small epsilon so a candidate sitting exactly at either tolerance
	// boundary passes despite float rounding (1100/1000-1 > 0.10).
	switch d := relDelta(base.Allocs, cand.Allocs); {
	case d > tol+1e-9:
		fails = append(fails, fmt.Sprintf(
			"allocs %d -> %d (%+.1f%%, tolerance +%.0f%%): allocation regression",
			base.Allocs, cand.Allocs, 100*d, 100*tol))
	case d < -tol-1e-9:
		fails = append(fails, fmt.Sprintf(
			"allocs %d -> %d (%+.1f%%, tolerance -%.0f%%): below the record; re-record BENCH_%s.json (quicksand-bench -json -par 1 %s) so the gain is held",
			base.Allocs, cand.Allocs, 100*d, 100*tol, base.ID, base.ID))
	}
	return append(fails, compareValues(base.Values, cand.Values)...)
}

// compareValues requires every value of the baseline to reach the
// candidate unchanged.
func compareValues(base, cand map[string]float64) []string {
	var fails []string
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cv, ok := cand[k]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf(
				"%s in the baseline but missing from the candidate: metric keys changed; regenerate the baseline if intentional", k))
		case cv != base[k]:
			fails = append(fails, fmt.Sprintf(
				"%s %v -> %v: simulated value changed", k, base[k], cv))
		}
	}
	return fails
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usage = "usage: benchdiff [-tol 0.10] baselineDir candidateDir id..."

// run is benchdiff with its arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tol := fs.Float64("tol", 0.10, "relative tolerance for allocs, above and below the baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	// A NaN or infinite tolerance would pass every allocation count, and
	// a negative one fail an unchanged count.
	if math.IsNaN(*tol) || math.IsInf(*tol, 0) || *tol < 0 {
		fmt.Fprintf(stderr, "benchdiff: -tol %v: want a finite fraction >= 0\n%s\n", *tol, usage)
		return 2
	}
	if len(args) < 3 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	baseDir, candDir, ids := args[0], args[1], args[2:]

	failed := false
	for _, id := range ids {
		base, err := readStats(baseDir, id)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: baseline: %v\n", id, err)
			failed = true
			continue
		}
		cand, err := readStats(candDir, id)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: candidate: %v\n", id, err)
			failed = true
			continue
		}
		fails := compare(base, cand, *tol)
		status := "ok"
		if len(fails) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Fprintf(stdout, "%-14s %s  events %d -> %d (%+.1f%%)  allocs %d -> %d (%+.1f%%)\n",
			id, status,
			base.Events, cand.Events, 100*relDelta(base.Events, cand.Events),
			base.Allocs, cand.Allocs, 100*relDelta(base.Allocs, cand.Allocs))
		for _, f := range fails {
			fmt.Fprintf(stdout, "    %s\n", f)
		}
	}
	if failed {
		return 1
	}
	return 0
}
