// Package obs is the observability layer over the deterministic
// simulation: the control-plane event log (log.go), causal spans (who
// did what, for how long, and what triggered it) and continuously
// sampled resource telemetry. The flat event log records *that* a
// migration or split happened; spans record *why* — a migration span is
// a child of the pressure span that caused it — and the whole run
// exports as a Perfetto-loadable timeline (export.go).
//
// Everything is nil-safe: a nil *Tracer accepts every call, allocates
// nothing, and returns the zero SpanID, so instrumented hot paths pay
// only a nil check when tracing is disabled. Span recording is
// synchronous host-side bookkeeping — it schedules no kernel events —
// so enabling the tracer never changes a run's kernel event count or
// schedule. Telemetry sampling (telemetry.go) does add kernel events
// and is therefore a separate, strictly opt-in switch.
package obs

import (
	"sort"

	"repro/internal/sim"
)

// Kinds: one vocabulary for control-plane events (Event.Kind) and
// spans (Span.Kind). A span's Name refines its kind: a KindPhase span
// named "freeze" is the blackout phase of its parent migration span.
const (
	KindSpawn     = "spawn"
	KindDestroy   = "destroy"
	KindPlace     = "place"
	KindMigrate   = "migrate"  // one proclet migration; as a span, phases are its children
	KindPhase     = "phase"    // a migration phase: freeze, precopy, postcopy
	KindSplit     = "split"    // a pool split
	KindMerge     = "merge"    // a pool merge
	KindPressure  = "pressure" // a reactor pressure episode (cpu, mem, mem-demand)
	KindRebalance = "rebalance"
	KindSched     = "sched"    // a slow-path decision: rebalance, affinity
	KindCrash     = "crash"    // a machine failed (fault injection)
	KindRecover   = "recover"  // a machine restarted or a proclet was re-placed
	KindFault     = "fault"    // a link fault was installed or healed
	KindSuspect   = "suspect"  // a failure-detector state transition
	KindRepl      = "repl"     // replication plane: ship, promote, depose, resync
	KindIncident  = "incident" // SLO plane (internal/obs/slo): an incident opened or closed; as a span, its interval
	KindRPC       = "rpc"      // one fabric round trip (simnet)
	KindInvoke    = "invoke"   // one proclet method invocation, retries included
	KindReq       = "req"      // one served request (or fan-in batch) in a serving plane
)

// SpanID identifies a span within one Tracer; 0 is "no span" (the
// parent of a root). IDs are assigned in creation order from the
// tracer's base (base+1, base+2, ...), which makes them deterministic
// per seed. A nonzero base (NewTracerWithBase) gives each shard of a
// partitioned run a disjoint ID space, so per-shard tracers merge into
// one fleet timeline without renumbering — and a span keeps the same
// ID whether or not the sampler retained its neighbors, which is what
// makes a sampled export a literal subset of the full one.
type SpanID uint64

// Attr is one span attribute: a key with either a string or a numeric
// value. A slice of Attrs (not a map) keeps attribute order — and
// therefore every export — deterministic.
type Attr struct {
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Span is one timed, causally-linked operation. TraceID is the ID of
// the root span of its causal tree (a root's TraceID is its own ID).
// Machine is the machine the operation ran on (-1: control plane);
// From/To are machine IDs for operations that move something (-1: not
// applicable).
type Span struct {
	TraceID SpanID
	ID      SpanID
	Parent  SpanID
	Kind    string
	Name    string
	Machine int
	From    int
	To      int
	Bytes   int64
	Start   sim.Time
	End     sim.Time
	Done    bool // End was recorded; open spans are clamped on export
	Err     string
	Attrs   []Attr
}

// Duration returns End-Start, or 0 for a span that was never ended.
func (s *Span) Duration() sim.Time {
	if !s.Done {
		return 0
	}
	return s.End - s.Start
}

// Tracer records spans against the kernel clock. All methods are valid
// on a nil receiver (no-ops returning zero), so instrumentation sites
// need no guards for correctness — only optionally for speed.
//
// The simulation kernel executes one event at a time, so the tracer
// needs no locking even though spans are recorded from many simulated
// processes.
type Tracer struct {
	k     *sim.Kernel
	base  SpanID
	seq   uint64 // IDs handed out: next ID is base + seq + 1
	spans []Span
	pos   map[SpanID]int // span ID -> index in spans
	maxAt sim.Time       // latest timestamp seen; export clamp for kernel-less tracers

	// next is a one-shot parent handed across an API boundary whose
	// signature cannot carry a SpanID (Runtime.Invoke calling
	// Fabric.CallWithTimeout). SetNext and the consuming TakeNext must
	// run synchronously — no park in between — or the scope would leak
	// to an unrelated caller.
	next SpanID
}

// NewTracer creates a tracer on the given kernel.
func NewTracer(k *sim.Kernel) *Tracer {
	return &Tracer{k: k, pos: make(map[SpanID]int)}
}

// NewTracerWithBase creates a tracer whose span IDs start at base+1.
// Partitioned runs give shard s the base SpanID(s)<<32, so every
// shard's IDs are globally unique and a fleet-wide merge (Concat)
// never renumbers. k may be nil for tracers that only receive complete
// spans (RecordAt/Put); such tracers clamp open spans to the latest
// timestamp they have seen.
func NewTracerWithBase(k *sim.Kernel, base SpanID) *Tracer {
	return &Tracer{k: k, base: base, pos: make(map[SpanID]int)}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Base returns the tracer's ID base.
func (t *Tracer) Base() SpanID {
	if t == nil {
		return 0
	}
	return t.base
}

// span returns a pointer to the stored span with the given ID, or nil.
func (t *Tracer) span(id SpanID) *Span {
	i, ok := t.pos[id]
	if !ok {
		return nil
	}
	return &t.spans[i]
}

// note advances the export clamp for open spans.
func (t *Tracer) note(at sim.Time) {
	if at > t.maxAt {
		t.maxAt = at
	}
}

// Start opens a span and returns its ID (0 on a nil tracer). parent 0
// makes it a root.
func (t *Tracer) Start(kind, name string, machine int, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	t.seq++
	id := t.base + SpanID(t.seq)
	trace := id
	if parent != 0 {
		if ps := t.span(parent); ps != nil {
			trace = ps.TraceID
		}
	}
	now := t.k.Now()
	t.note(now)
	t.pos[id] = len(t.spans)
	t.spans = append(t.spans, Span{
		TraceID: trace,
		ID:      id,
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		Machine: machine,
		From:    -1,
		To:      -1,
		Start:   now,
	})
	return id
}

// RecordAt appends a complete span with explicit timestamps and
// returns its ID. This is the retroactive path: the SLO monitor emits
// an incident span only once the incident has closed, with the open
// time as Start — span IDs are assigned at emission, so the ID order
// of an export remains deterministic.
func (t *Tracer) RecordAt(kind, name string, machine int, parent SpanID, start, end sim.Time) SpanID {
	if t == nil {
		return 0
	}
	t.seq++
	id := t.base + SpanID(t.seq)
	trace := id
	if parent != 0 {
		if ps := t.span(parent); ps != nil {
			trace = ps.TraceID
		}
	}
	t.note(end)
	t.pos[id] = len(t.spans)
	t.spans = append(t.spans, Span{
		TraceID: trace,
		ID:      id,
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		Machine: machine,
		From:    -1,
		To:      -1,
		Start:   start,
		End:     end,
		Done:    true,
	})
	return id
}

// Put stores a span verbatim, keeping its ID, trace, and parent. This
// is how samplers and mergers build derived tracers: the copied span
// is byte-identical to the original, so a filtered export is a literal
// subset of the full one. The caller must not reuse an ID already
// present. Put does not advance the ID counter.
func (t *Tracer) Put(s Span) {
	if t == nil {
		return
	}
	t.note(s.Start)
	if s.Done {
		t.note(s.End)
	}
	t.pos[s.ID] = len(t.spans)
	t.spans = append(t.spans, s)
}

// End closes a span at the current kernel time.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	sp := t.span(id)
	if sp == nil {
		return
	}
	sp.End = t.k.Now()
	sp.Done = true
	t.note(sp.End)
}

// SetRoute records the source and destination machines of a move.
func (t *Tracer) SetRoute(id SpanID, from, to int) {
	if t == nil || id == 0 {
		return
	}
	if sp := t.span(id); sp != nil {
		sp.From, sp.To = from, to
	}
}

// SetBytes records the payload size the span moved.
func (t *Tracer) SetBytes(id SpanID, n int64) {
	if t == nil || id == 0 {
		return
	}
	if sp := t.span(id); sp != nil {
		sp.Bytes = n
	}
}

// SetErr records the span's error (nil clears nothing and is a no-op).
func (t *Tracer) SetErr(id SpanID, err error) {
	if t == nil || id == 0 || err == nil {
		return
	}
	if sp := t.span(id); sp != nil {
		sp.Err = err.Error()
	}
}

// Num attaches a numeric attribute.
func (t *Tracer) Num(id SpanID, key string, v float64) {
	if t == nil || id == 0 {
		return
	}
	if sp := t.span(id); sp != nil {
		sp.Attrs = append(sp.Attrs, Attr{Key: key, Num: v, IsNum: true})
	}
}

// Str attaches a string attribute.
func (t *Tracer) Str(id SpanID, key, v string) {
	if t == nil || id == 0 {
		return
	}
	if sp := t.span(id); sp != nil {
		sp.Attrs = append(sp.Attrs, Attr{Key: key, Str: v})
	}
}

// SetNext arms a one-shot parent for the next TakeNext. See the field
// comment for the synchronicity requirement.
func (t *Tracer) SetNext(id SpanID) {
	if t == nil {
		return
	}
	t.next = id
}

// TakeNext consumes the one-shot parent (0 when none armed).
func (t *Tracer) TakeNext() SpanID {
	if t == nil {
		return 0
	}
	id := t.next
	t.next = 0
	return id
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns all recorded spans in recording order (not a copy).
// Within one live tracer recording order is ID order; tracers built
// with Put may interleave — exporters use SpansByID.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SpansByID returns the spans in ascending ID order. When the spans
// are already ordered (the common case: one live tracer) the
// underlying slice is returned without copying.
func (t *Tracer) SpansByID() []Span {
	if t == nil {
		return nil
	}
	ordered := true
	for i := 1; i < len(t.spans); i++ {
		if t.spans[i].ID < t.spans[i-1].ID {
			ordered = false
			break
		}
	}
	if ordered {
		return t.spans
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Span returns the span with the given ID, or nil.
func (t *Tracer) Span(id SpanID) *Span {
	if t == nil || id == 0 {
		return nil
	}
	return t.span(id)
}

// LastOpen returns the most recently started span that is still open
// and whose kind is one of kinds (0 when none). The SLO monitor uses
// it to parent an incident under the fault/pressure/migration span
// active at open.
func (t *Tracer) LastOpen(kinds ...string) SpanID {
	if t == nil {
		return 0
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		sp := &t.spans[i]
		if sp.Done {
			continue
		}
		for _, k := range kinds {
			if sp.Kind == k {
				return sp.ID
			}
		}
	}
	return 0
}

// Concat builds one tracer holding every span of the inputs, in
// ascending ID order. With disjoint per-shard bases this is the
// deterministic barrier merge for partitioned runs: the result depends
// only on shard contents, never on host worker count. Nil tracers are
// skipped; inputs are not modified.
func Concat(tracers ...*Tracer) *Tracer {
	total := 0
	for _, t := range tracers {
		total += t.Len()
	}
	out := &Tracer{pos: make(map[SpanID]int, total)}
	out.spans = make([]Span, 0, total)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i := range t.spans {
			out.Put(t.spans[i])
		}
	}
	sort.Slice(out.spans, func(i, j int) bool { return out.spans[i].ID < out.spans[j].ID })
	for i := range out.spans {
		out.pos[out.spans[i].ID] = i
	}
	return out
}

// clampEnd returns the span's end for export: open spans are clamped
// to the latest timestamp the tracer has seen (end of run).
func (t *Tracer) clampEnd(s *Span) sim.Time {
	if s.Done {
		return s.End
	}
	end := t.maxAt
	if t.k != nil {
		if now := t.k.Now(); now > end {
			end = now
		}
	}
	if end > s.Start {
		return end
	}
	return s.Start
}
