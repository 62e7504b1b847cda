package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
)

// The one trace format is Chrome trace-event JSON (WriteChromeTrace):
// it loads in Perfetto or chrome://tracing, with one process (pid) per
// machine and one thread (tid) per causal tree, so spans of a tree nest
// visually by time, and telemetry series become counter tracks. It is
// byte-deterministic: spans are written in ID order, samples in
// (probe, time) order, and args maps are marshaled by encoding/json,
// which sorts keys. ReadChromeTrace reads it back as Records for qsctl
// analyze and cmd/tracecheck.

// chromeSpanEvent is one complete ("X") trace event.
type chromeSpanEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMetaEvent names a process track ("M" metadata).
type chromeMetaEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// chromeCounterEvent is one counter sample ("C").
type chromeCounterEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// pidOf maps a machine ID to a Chrome process ID: machine m is pid
// m+1; the control plane (machine -1) is pid 0.
func pidOf(machine int) int {
	if machine < 0 {
		return 0
	}
	return machine + 1
}

// usOf converts a kernel timestamp to trace-event microseconds.
func usOf(t sim.Time) float64 { return float64(t) / 1e3 }

// finite clamps non-finite values so encoding/json never rejects an
// export (JSON has no Inf/NaN).
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// WriteChromeTrace writes the run as Chrome trace-event JSON. tl may
// be nil (no counter tracks).
func WriteChromeTrace(w io.Writer, t *Tracer, tl *Telemetry) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev any) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	// Process-name metadata: the control plane plus every machine that
	// appears in a span or a telemetry probe.
	spans := t.SpansByID()
	pids := map[int]string{}
	for i := range spans {
		s := &spans[i]
		pid := pidOf(s.Machine)
		if _, ok := pids[pid]; !ok {
			pids[pid] = trackName(s.Machine)
		}
	}
	if tl != nil {
		for i := range tl.probes {
			pid := pidOf(tl.probes[i].machine)
			if _, ok := pids[pid]; !ok {
				pids[pid] = trackName(tl.probes[i].machine)
			}
		}
	}
	order := make([]int, 0, len(pids))
	for pid := range pids {
		order = append(order, pid)
	}
	sort.Ints(order)
	for _, pid := range order {
		ev := chromeMetaEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": pids[pid]}}
		if err := emit(ev); err != nil {
			return err
		}
	}

	// Spans, in ID order.
	for i := range spans {
		s := &spans[i]
		end := t.clampEnd(s)
		args := map[string]any{
			"span":   uint64(s.ID),
			"parent": uint64(s.Parent),
			"trace":  uint64(s.TraceID),
		}
		if s.From >= 0 || s.To >= 0 {
			args["from"] = s.From
			args["to"] = s.To
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		if !s.Done {
			args["open"] = true
		}
		for _, a := range s.Attrs {
			if a.IsNum {
				args[a.Key] = finite(a.Num)
			} else {
				args[a.Key] = a.Str
			}
		}
		ev := chromeSpanEvent{
			Name: s.Kind + ":" + s.Name,
			Cat:  s.Kind,
			Ph:   "X",
			Ts:   usOf(s.Start),
			Dur:  usOf(end - s.Start),
			Pid:  pidOf(s.Machine),
			Tid:  uint64(s.TraceID),
			Args: args,
		}
		if err := emit(ev); err != nil {
			return err
		}
	}

	// Telemetry counter tracks, one event per sample.
	if tl != nil {
		for i := range tl.probes {
			p := &tl.probes[i]
			for _, pt := range p.series.Points() {
				ev := chromeCounterEvent{
					Name: p.series.Name,
					Ph:   "C",
					Ts:   usOf(pt.At),
					Pid:  pidOf(p.machine),
					Args: map[string]any{"value": finite(pt.Value)},
				}
				if err := emit(ev); err != nil {
					return err
				}
			}
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// trackName renders a machine's Chrome process name.
func trackName(machine int) string {
	if machine < 0 {
		return "control-plane"
	}
	return fmt.Sprintf("machine %d", machine)
}

// Record is one span (Type "span") or telemetry sample (Type "sample")
// read back from a trace file. One struct covers both so readers need a
// single decode path; its JSON form is how tracecheck compares and
// prints spans.
type Record struct {
	Type string `json:"type"`

	// Span fields.
	Trace   uint64             `json:"trace,omitempty"`
	ID      uint64             `json:"id,omitempty"`
	Parent  uint64             `json:"parent,omitempty"`
	Kind    string             `json:"kind,omitempty"`
	Name    string             `json:"name,omitempty"`
	Machine int                `json:"machine"`
	From    int                `json:"from"`
	To      int                `json:"to"`
	Bytes   int64              `json:"bytes,omitempty"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Open    bool               `json:"open,omitempty"`
	Err     string             `json:"err,omitempty"`
	Attrs   map[string]string  `json:"attrs,omitempty"`
	Nums    map[string]float64 `json:"nums,omitempty"`

	// Sample fields.
	Series string  `json:"series,omitempty"`
	AtNS   int64   `json:"at_ns,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// chromeEvent is one trace event as ReadChromeTrace decodes it: the
// union of the three phases WriteChromeTrace writes. The pointers tell
// a missing field from a zero one, and args stay raw so that span ids
// decode exactly as uint64 instead of through float64.
type chromeEvent struct {
	Name string                     `json:"name"`
	Cat  string                     `json:"cat"`
	Ph   string                     `json:"ph"`
	Ts   *float64                   `json:"ts"`
	Dur  *float64                   `json:"dur"`
	Pid  *int                       `json:"pid"`
	Args map[string]json.RawMessage `json:"args"`
}

// ReadChromeTrace parses a file written by WriteChromeTrace back into
// the run's records, in file order: one span per complete ("X") event
// and one sample per counter ("C") event; process-name metadata ("M")
// is checked and dropped. It checks the envelope, each phase's required
// fields, that durations are non-negative and that span ids are
// non-zero and unique. Every error names where the file goes wrong: an
// event index, a byte offset, or the envelope's displayTimeUnit.
func ReadChromeTrace(r io.Reader) ([]Record, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	var doc struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("obs: not valid JSON: %w", located(err))
	}
	if doc.DisplayTimeUnit != "ms" {
		return nil, fmt.Errorf("obs: displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	var recs []Record
	seen := map[uint64]bool{}
	for i := range doc.TraceEvents {
		ev := &doc.TraceEvents[i]
		rec, err := ev.record()
		if err == nil && rec.Type == "span" {
			if seen[rec.ID] {
				err = fmt.Errorf("repeats span id %d", rec.ID)
			}
			seen[rec.ID] = true
		}
		if err != nil {
			return nil, fmt.Errorf("obs: event %d (ph=%s %q): %w", i, ev.Ph, ev.Name, err)
		}
		if rec.Type != "" {
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// record rebuilds the Record an event was written from: a span for
// "X", a sample for "C", and none (Type "") for "M".
func (ev *chromeEvent) record() (Record, error) {
	rec := Record{From: -1, To: -1}
	if ev.Pid != nil {
		rec.Machine = *ev.Pid - 1
	}
	switch ev.Ph {
	case "X":
		return ev.span(rec)
	case "M":
		if ev.Name != "process_name" || ev.Pid == nil {
			return rec, errors.New("malformed metadata")
		}
		return Record{}, nil
	case "C":
		if ev.Name == "" || ev.Ts == nil || ev.Pid == nil || ev.Args["value"] == nil {
			return rec, errors.New("missing name/ts/pid/value")
		}
		if err := arg(ev.Args, "value", &rec.Value); err != nil {
			return rec, err
		}
		at, ok := nsOf(*ev.Ts)
		if !ok {
			return rec, fmt.Errorf("ts %v out of range", *ev.Ts)
		}
		rec.Type, rec.Series, rec.AtNS = "sample", ev.Name, at
		return rec, nil
	}
	return rec, errors.New("unexpected phase")
}

// span rebuilds a complete event's span record onto rec, which already
// holds the machine and the default route.
func (ev *chromeEvent) span(rec Record) (Record, error) {
	if ev.Name == "" || ev.Ts == nil || ev.Dur == nil || ev.Pid == nil {
		return rec, errors.New("missing name/ts/dur/pid")
	}
	if *ev.Dur < 0 {
		return rec, fmt.Errorf("negative duration %v", *ev.Dur)
	}
	start, okStart := nsOf(*ev.Ts)
	dur, okDur := nsOf(*ev.Dur)
	if !okStart || !okDur || start+dur < start {
		return rec, fmt.Errorf("ts %v + dur %v out of range", *ev.Ts, *ev.Dur)
	}
	name, ok := strings.CutPrefix(ev.Name, ev.Cat+":")
	if !ok {
		return rec, fmt.Errorf("name does not start with cat %q", ev.Cat+":")
	}
	rec.Type, rec.Kind, rec.Name = "span", ev.Cat, name
	rec.StartNS, rec.EndNS = start, start+dur

	if err := errors.Join(
		arg(ev.Args, "span", &rec.ID),
		arg(ev.Args, "parent", &rec.Parent),
		arg(ev.Args, "trace", &rec.Trace),
		arg(ev.Args, "from", &rec.From),
		arg(ev.Args, "to", &rec.To),
		arg(ev.Args, "bytes", &rec.Bytes),
		arg(ev.Args, "err", &rec.Err),
		arg(ev.Args, "open", &rec.Open),
	); err != nil {
		return rec, err
	}
	if rec.ID == 0 {
		return rec, errors.New("missing args.span")
	}

	// The rest are the span's attributes, read in key order so that a
	// file with two bad ones always reports the same one.
	keys := make([]string, 0, len(ev.Args))
	for key := range ev.Args {
		switch key {
		case "span", "parent", "trace", "from", "to", "bytes", "err", "open":
		default:
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		var v any
		if err := json.Unmarshal(ev.Args[key], &v); err != nil {
			return rec, fmt.Errorf("args.%s: %w", key, err)
		}
		switch v := v.(type) {
		case string:
			if rec.Attrs == nil {
				rec.Attrs = map[string]string{}
			}
			rec.Attrs[key] = v
		case float64:
			if rec.Nums == nil {
				rec.Nums = map[string]float64{}
			}
			rec.Nums[key] = v
		default:
			return rec, fmt.Errorf("args.%s = %s is neither a string nor a number", key, ev.Args[key])
		}
	}
	return rec, nil
}

// arg decodes args[key], when present, into dst. A null value, or
// one dst's type cannot hold exactly, is an error.
func arg[T any](args map[string]json.RawMessage, key string, dst *T) error {
	raw, ok := args[key]
	if !ok {
		return nil
	}
	var v *T
	if err := json.Unmarshal(raw, &v); err != nil || v == nil {
		return fmt.Errorf("args.%s = %s is not a %T", key, raw, *dst)
	}
	*dst = *v
	return nil
}

// nsOf converts trace-event microseconds back to kernel nanoseconds,
// the inverse of usOf; ok is false when the result overflows int64.
func nsOf(us float64) (ns int64, ok bool) {
	f := math.Round(us * 1e3)
	return int64(f), f >= math.MinInt64 && f < math.MaxInt64
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
