package main

// Harness-side spans for the traced pass: one per call into the program
// (parse, set-up twin, run, report, each experiment, each matrix cell,
// each probe). Spans stay in memory and are written as Chrome trace JSON
// when the run ends. A nil *tracer records nothing, which is how the
// untraced pass measures.

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

type span struct {
	name       string
	id, parent int // parent 0 = root
	start, end time.Duration
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // ids of the spans now open, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

var noSpan = func() {}

// span opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noSpan
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// writeChrome writes the spans in Chrome trace event format (load it at
// chrome://tracing or ui.perfetto.dev). args carries each span's id, its
// parent's id and the workload, so the tree survives the export.
func (t *tracer) writeChrome(w io.Writer) error {
	type args struct {
		ID       int    `json:"id"`
		Parent   int    `json:"parent"`
		Workload string `json:"workload"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args{ID: s.id, Parent: s.parent, Workload: t.workload},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// spanTotal sums the spans of one name: total is wall time, self is
// total minus the time covered by child spans.
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes folds the spans by name, largest self time first.
func (t *tracer) selfTimes() []spanTotal {
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.parent] += s.end - s.start
	}
	byName := map[string]*spanTotal{}
	for _, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &spanTotal{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - children[s.id]
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}
