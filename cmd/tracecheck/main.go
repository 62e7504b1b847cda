// Command tracecheck validates a Chrome trace-event JSON file written
// by the obs exporter (quicksand-bench -trace-dir). It is the CI gate
// that keeps exported timelines loadable in Perfetto: the file must
// read back through obs.ReadChromeTrace (valid JSON, the trace-event
// envelope, well-formed events, unique span ids), hold at least one
// span, and — with -require-causal — hold at least one migration span
// that descends from a pressure/sched/repl span.
//
// Usage:
//
//	tracecheck [-require-causal] [-min-events N] [-subset full.json] [-max-frac F] run.json [more.json ...]
//
// -subset names the full (unsampled) export of the same run: every
// checked file's spans must then be an ID-keyed subset of the full
// file's with identical fields, and prefix-closed — a
// kept span's parent is kept too, so sampled trees stay walkable.
// -max-frac additionally bounds the sampled span count to a fraction
// of the full count, a finite number in [0, 1] where 0 means unbounded;
// it is the CI gate that keeps tail-based sampling honest about its
// claimed volume reduction.
//
// Exits 0 when every file passes, 1 on any violation, 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = "usage: tracecheck [-require-causal] [-min-events N] [-subset full.json] [-max-frac F] run.json ..."

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	requireCausal := fs.Bool("require-causal", false,
		"require at least one migrate span descending from a pressure/sched/repl span")
	minEvents := fs.Int("min-events", 1, "minimum number of span and counter events per file")
	subset := fs.String("subset", "", "full export: checked files' spans must be an ID-keyed, prefix-closed subset with identical fields")
	maxFrac := fs.Float64("max-frac", 0, "with -subset: bound sampled span count to this fraction of the full count (0: unbounded)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	// A NaN, infinite or negative fraction would skip the bound, which
	// is tested as maxFrac > 0, and one above 1 bounds nothing.
	if f := *maxFrac; math.IsNaN(f) || f < 0 || f > 1 {
		fmt.Fprintf(stderr, "tracecheck: -max-frac %v: want a fraction in [0, 1] (0: unbounded)\n%s\n", f, usage)
		return 2
	}
	if *maxFrac != 0 && *subset == "" {
		fmt.Fprintln(stderr, "tracecheck: -max-frac requires -subset")
		return 2
	}
	var full map[uint64]string
	if *subset != "" {
		recs, err := readFile(*subset)
		if err == nil {
			full, err = spanIndex(recs)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", *subset, err)
			return 1
		}
	}
	ok := true
	for _, path := range fs.Args() {
		recs, err := readFile(path)
		if err == nil {
			err = check(recs, *requireCausal, *minEvents)
		}
		if err == nil && full != nil {
			err = checkSubset(recs, full, *maxFrac)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			ok = false
			continue
		}
		fmt.Fprintf(stdout, "tracecheck: %s ok\n", path)
	}
	if !ok {
		return 1
	}
	return 0
}

// readFile reads a trace file's records.
func readFile(path string) ([]obs.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadChromeTrace(f)
}

// spanIndex keys a file's spans by ID, each rendered as JSON so a
// subset check compares every field and can print both sides.
func spanIndex(recs []obs.Record) (map[uint64]string, error) {
	out := make(map[uint64]string, len(recs))
	for i := range recs {
		if recs[i].Type != "span" {
			continue
		}
		canon, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, err
		}
		out[recs[i].ID] = string(canon)
	}
	return out, nil
}

// checkSubset verifies the sampled-export contract against the full
// export: every sampled span exists in the full set with identical
// fields, every sampled span's parent (when the full set has it) is
// also sampled, and the sampled volume honors the claimed reduction.
func checkSubset(recs []obs.Record, full map[uint64]string, maxFrac float64) error {
	sampled, err := spanIndex(recs)
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		ref, ok := full[r.ID]
		if !ok {
			return fmt.Errorf("span %d not present in full export", r.ID)
		}
		if canon := sampled[r.ID]; canon != ref {
			return fmt.Errorf("span %d differs from full export:\n  sampled: %s\n  full:    %s", r.ID, canon, ref)
		}
		// Prefix-closure: a sampled span whose parent the full export
		// knows must carry that parent along, or the tree is unwalkable.
		if _, inFull := full[r.Parent]; inFull {
			if _, inSampled := sampled[r.Parent]; !inSampled {
				return fmt.Errorf("span %d kept but its parent %d was dropped", r.ID, r.Parent)
			}
		}
	}
	if maxFrac > 0 && float64(len(sampled)) > maxFrac*float64(len(full)) {
		return fmt.Errorf("%d sampled spans of %d full: exceeds -max-frac %g (%.1fx reduction required)",
			len(sampled), len(full), maxFrac, 1/maxFrac)
	}
	return nil
}

// check applies the checks beyond what reading the file enforces:
// enough events, at least one span, and with requireCausal a migration
// whose cause (the one qsctl analyze reports) is a pressure, sched or
// repl span.
func check(recs []obs.Record, requireCausal bool, minEvents int) error {
	if len(recs) < minEvents {
		return fmt.Errorf("%d span and counter events, want >= %d", len(recs), minEvents)
	}
	rp := obs.Analyze(recs)
	if rp.Spans == 0 {
		return fmt.Errorf("no complete (ph=X) span events")
	}
	if !requireCausal {
		return nil
	}
	for _, m := range rp.Migrations {
		if m.Cause != "" {
			return nil
		}
	}
	return fmt.Errorf("no migrate span descends from a pressure/sched/repl span")
}
