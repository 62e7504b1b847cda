// Command tracecheck validates the shape of a Chrome trace-event JSON
// file produced by the obs exporter (qsctl -trace-out run.json or the
// bench harness -trace-dir). It is the CI gate that keeps exported
// timelines loadable in Perfetto: valid JSON, the trace-event envelope,
// well-formed events, and — with -require-causal — at least one
// migration span that descends from a pressure/sched/repl span.
//
// Usage:
//
//	tracecheck [-require-causal] [-min-events N] [-subset full.json] [-max-frac F] run.json [more.json ...]
//
// -subset names the full (unsampled) export of the same run: every
// checked file's complete-span events must then be an ID-keyed subset
// of the full file with byte-identical fields, and prefix-closed — a
// kept span's parent is kept too, so sampled trees stay walkable.
// -max-frac additionally bounds the sampled span count to a fraction
// of the full count; it is the CI gate that keeps tail-based sampling
// honest about its claimed volume reduction.
//
// Exits 0 when every file passes, 1 on any violation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// event is the subset of a trace event tracecheck inspects.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

type document struct {
	DisplayTimeUnit string  `json:"displayTimeUnit"`
	TraceEvents     []event `json:"traceEvents"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	requireCausal := fs.Bool("require-causal", false,
		"require at least one migrate span descending from a pressure/sched/repl span")
	minEvents := fs.Int("min-events", 1, "minimum number of trace events per file")
	subset := fs.String("subset", "", "full export: checked files' spans must be an ID-keyed, prefix-closed subset with identical fields")
	maxFrac := fs.Float64("max-frac", 0, "with -subset: bound sampled span count to this fraction of the full count (0: unbounded)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: tracecheck [-require-causal] [-min-events N] [-subset full.json] [-max-frac F] run.json ...")
		return 2
	}
	if *maxFrac != 0 && *subset == "" {
		fmt.Fprintln(stderr, "tracecheck: -max-frac requires -subset")
		return 2
	}
	var full map[uint64]string
	if *subset != "" {
		var err error
		if full, err = spanEvents(*subset); err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", *subset, err)
			return 1
		}
	}
	ok := true
	for _, path := range fs.Args() {
		err := checkFile(path, *requireCausal, *minEvents)
		if err == nil && full != nil {
			err = checkSubset(path, full, *maxFrac)
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

// spanEvents loads a trace file's complete-span events keyed by span
// ID, each canonicalized back to JSON for field-exact comparison.
func spanEvents(path string) (map[uint64]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("not valid JSON: %w", located(err))
	}
	out := make(map[uint64]string, len(doc.TraceEvents))
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, ok := asUint(ev.Args["span"])
		if !ok || id == 0 {
			return nil, fmt.Errorf("event %d (%s) missing args.span", i, ev.Name)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate span id %d", id)
		}
		canon, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		out[id] = string(canon)
	}
	return out, nil
}

// checkSubset verifies the sampled-export contract against the full
// export: every sampled span exists in the full set with identical
// fields, every sampled span's parent (when the full set has it) is
// also sampled, and the sampled volume honors the claimed reduction.
func checkSubset(path string, full map[uint64]string, maxFrac float64) error {
	sampled, err := spanEvents(path)
	if err != nil {
		return err
	}
	for id, canon := range sampled {
		ref, ok := full[id]
		if !ok {
			return fmt.Errorf("span %d not present in full export", id)
		}
		if canon != ref {
			return fmt.Errorf("span %d differs from full export:\n  sampled: %s\n  full:    %s", id, canon, ref)
		}
	}
	// Prefix-closure: a sampled span whose parent the full export
	// knows must carry that parent along, or the tree is unwalkable.
	var probe event
	for id, canon := range sampled {
		if err := json.Unmarshal([]byte(canon), &probe); err != nil {
			return err
		}
		parent, _ := asUint(probe.Args["parent"])
		if parent == 0 {
			continue
		}
		if _, inFull := full[parent]; !inFull {
			continue
		}
		if _, inSampled := sampled[parent]; !inSampled {
			return fmt.Errorf("span %d kept but its parent %d was dropped", id, parent)
		}
	}
	if maxFrac > 0 && float64(len(sampled)) > maxFrac*float64(len(full)) {
		return fmt.Errorf("%d sampled spans of %d full: exceeds -max-frac %g (%.1fx reduction required)",
			len(sampled), len(full), maxFrac, 1/maxFrac)
	}
	return nil
}

// checkFile reads path and checks it (see checkData).
func checkFile(path string, requireCausal bool, minEvents int) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return checkData(raw, requireCausal, minEvents)
}

// checkData validates one trace file's bytes. Every failure names where
// it is: a byte offset, an event index, a span, or a document field.
func checkData(raw []byte, requireCausal bool, minEvents int) error {
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", located(err))
	}
	if doc.DisplayTimeUnit != "ms" {
		return fmt.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) < minEvents {
		return fmt.Errorf("%d trace events, want >= %d", len(doc.TraceEvents), minEvents)
	}

	// spans maps span ID -> (parent, cat) for the causal walk; migrates
	// holds the migrate spans in file order.
	type spanInfo struct {
		parent uint64
		cat    string
	}
	spans := map[uint64]spanInfo{}
	var migrates []uint64
	sawComplete := false
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			sawComplete = true
			if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil {
				return fmt.Errorf("event %d (ph=X) missing name/ts/dur/pid", i)
			}
			if *ev.Dur < 0 {
				return fmt.Errorf("event %d (%s) has negative duration %v", i, ev.Name, *ev.Dur)
			}
			id, okID := asUint(ev.Args["span"])
			if !okID || id == 0 {
				return fmt.Errorf("event %d (%s) missing args.span", i, ev.Name)
			}
			if _, dup := spans[id]; dup {
				return fmt.Errorf("event %d (%s) repeats span id %d", i, ev.Name, id)
			}
			parent, _ := asUint(ev.Args["parent"])
			spans[id] = spanInfo{parent: parent, cat: ev.Cat}
			if ev.Cat == "migrate" {
				migrates = append(migrates, id)
			}
		case "M":
			if ev.Name != "process_name" || ev.Pid == nil {
				return fmt.Errorf("event %d (ph=M) malformed metadata", i)
			}
		case "C":
			if ev.Name == "" || ev.Ts == nil || ev.Pid == nil || ev.Args["value"] == nil {
				return fmt.Errorf("event %d (ph=C) missing name/ts/pid/value", i)
			}
		default:
			return fmt.Errorf("event %d has unexpected phase %q", i, ev.Ph)
		}
	}
	if !sawComplete {
		return fmt.Errorf("no complete (ph=X) span events")
	}

	if requireCausal {
		for _, id := range migrates {
			// A chain longer than the span count has come back on itself.
			for p, hops := spans[id].parent, 0; p != 0; hops++ {
				if hops == len(spans) {
					return fmt.Errorf("span %d: its parent chain has a cycle", id)
				}
				ps, ok := spans[p]
				if !ok {
					break
				}
				if ps.cat == "pressure" || ps.cat == "sched" || ps.cat == "repl" {
					return nil
				}
				p = ps.parent
			}
		}
		return fmt.Errorf("no migrate span descends from a pressure/sched/repl span")
	}
	return nil
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

// asUint coerces a decoded JSON number to uint64.
func asUint(v any) (uint64, bool) {
	f, ok := v.(float64)
	if !ok || f < 0 {
		return 0, false
	}
	return uint64(f), true
}
