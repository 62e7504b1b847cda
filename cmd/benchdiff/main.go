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
//   - events_processed: must match the baseline within ±tol in either
//     direction — kernel event counts are deterministic, so a change
//     beyond noise means the simulation's behaviour changed, faster or
//     slower.
//   - allocs: must not exceed the baseline by more than tol. Falling
//     below is an improvement and passes; heap allocation counts are
//     exact only for -par 1 runs, which is what CI records.
//   - wall_ms: reported for context, never gated — wall clock depends
//     on the host.
//   - values: behavioural guarantees, gated for keys the baseline
//     records (old baselines without values skip these checks).
//     Keys prefixed "lost" are durability counters and must not exceed
//     the baseline — with committed baselines of zero that means no
//     acked object may ever be lost. Failover latency keys
//     (failover_ms_mean/max) must stay within ±tol of the baseline.
//     Serving-tail keys — goodput_rps and every p999_ms* quantile —
//     are gated the same way: the simulation is deterministic, so a
//     drift beyond tolerance means the serving behaviour changed.
//     Other values are informational; keys prefixed "wall_" are host
//     time by convention and never gated. A gated key present in the
//     baseline but missing from the candidate fails explicitly.
//
// Missing or malformed records fail with a message saying how to
// regenerate them (a baseline with zero events is treated as
// malformed), and a record whose embedded id doesn't match its
// filename is rejected as stale.
//
// Exit status is 1 if any comparison fails, 2 on usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchStats mirrors the record written by quicksand-bench -json.
type benchStats struct {
	ID     string             `json:"id"`
	WallMS float64            `json:"wall_ms"`
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
	if st.ID != "" && st.ID != id {
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
	// Small epsilon so a candidate sitting exactly at the tolerance
	// boundary passes despite float rounding (1100/1000-1 > 0.10).
	tol += 1e-9
	var fails []string
	if d := relDelta(base.Events, cand.Events); d > tol || d < -tol {
		fails = append(fails, fmt.Sprintf(
			"events_processed %d -> %d (%+.1f%%, tolerance ±%.0f%%): deterministic behaviour changed",
			base.Events, cand.Events, 100*d, 100*tol))
	}
	if d := relDelta(base.Allocs, cand.Allocs); d > tol {
		fails = append(fails, fmt.Sprintf(
			"allocs %d -> %d (%+.1f%%, tolerance +%.0f%%): allocation regression",
			base.Allocs, cand.Allocs, 100*d, 100*tol))
	}
	fails = append(fails, compareValues(base.Values, cand.Values, tol)...)
	return fails
}

// gatedValue reports whether a values key carries a behavioural
// guarantee that benchdiff enforces (vs informational context).
func gatedValue(k string) bool {
	return strings.HasPrefix(k, "lost") || k == "failover_ms_mean" || k == "failover_ms_max" ||
		k == "goodput_rps" || strings.HasPrefix(k, "p999_ms") || k == "makespan_ratio"
}

// compareValues gates behavioural values. Non-gated keys — including
// everything prefixed "wall_", which is host time by convention — are
// informational. A gated key the baseline has but the candidate lost is
// a failure (the experiment's metric keys changed under the gate); keys
// only the candidate has are new metrics and pass silently until the
// baseline is regenerated.
func compareValues(base, cand map[string]float64, tol float64) []string {
	var fails []string
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		bv := base[k]
		cv, ok := cand[k]
		if !ok {
			if gatedValue(k) {
				fails = append(fails, fmt.Sprintf(
					"%s gated by the baseline but missing from the candidate: metric keys changed; regenerate the baseline if intentional", k))
			}
			continue
		}
		switch {
		case strings.HasPrefix(k, "lost"):
			// Durability counter: acked objects lost must never grow.
			// Committed baselines record 0, so any loss fails.
			if cv > bv {
				fails = append(fails, fmt.Sprintf(
					"%s %.0f -> %.0f: durability regression (acked objects lost)", k, bv, cv))
			}
		case k == "failover_ms_mean" || k == "failover_ms_max":
			lo, hi := bv*(1-tol), bv*(1+tol)
			if cv < lo || cv > hi {
				fails = append(fails, fmt.Sprintf(
					"%s %.2f -> %.2f (tolerance ±%.0f%%): failover latency drifted", k, bv, cv, 100*tol))
			}
		case k == "makespan_ratio":
			// Fixed-work completion time relative to the undisturbed
			// oracle: the price of robustness must not creep.
			lo, hi := bv*(1-tol), bv*(1+tol)
			if cv < lo || cv > hi {
				fails = append(fails, fmt.Sprintf(
					"%s %.3f -> %.3f (tolerance ±%.0f%%): robustness tax drifted", k, bv, cv, 100*tol))
			}
		case k == "goodput_rps" || strings.HasPrefix(k, "p999_ms"):
			// Serving throughput and tail latency: deterministic, so
			// any drift past tolerance is a behaviour change.
			lo, hi := bv*(1-tol), bv*(1+tol)
			if cv < lo || cv > hi {
				fails = append(fails, fmt.Sprintf(
					"%s %.3f -> %.3f (tolerance ±%.0f%%): serving behaviour drifted", k, bv, cv, 100*tol))
			}
		}
	}
	return fails
}

func main() {
	tol := flag.Float64("tol", 0.10, "relative tolerance for events and allocs")
	flag.Parse()
	args := flag.Args()
	if len(args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.10] baselineDir candidateDir id...")
		os.Exit(2)
	}
	baseDir, candDir, ids := args[0], args[1], args[2:]

	failed := false
	for _, id := range ids {
		base, err := readStats(baseDir, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: baseline: %v\n", id, err)
			failed = true
			continue
		}
		cand, err := readStats(candDir, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: candidate: %v\n", id, err)
			failed = true
			continue
		}
		fails := compare(base, cand, *tol)
		status := "ok"
		if len(fails) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-14s %s  events %d -> %d (%+.1f%%)  allocs %d -> %d (%+.1f%%)  wall %.0fms -> %.0fms\n",
			id, status,
			base.Events, cand.Events, 100*relDelta(base.Events, cand.Events),
			base.Allocs, cand.Allocs, 100*relDelta(base.Allocs, cand.Allocs),
			base.WallMS, cand.WallMS)
		for _, f := range fails {
			fmt.Printf("    %s\n", f)
		}
	}
	if failed {
		os.Exit(1)
	}
}
