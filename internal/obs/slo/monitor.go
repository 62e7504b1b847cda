// Package slo is the streaming SLO plane over the deterministic
// simulation: a windowed aggregator that folds request completions
// into fixed windows on the virtual clock, evaluates multi-window
// burn-rate rules over them, and emits first-class incident records —
// open and close, with severity and a causal link to the control-plane
// activity in flight when the incident opened.
//
// The monitor is pure host-side bookkeeping fed synchronously from
// serving completion paths: it schedules no kernel events, so enabling
// it never perturbs a run's event count or schedule, and per-shard
// monitors under a sim.ParKernel are deterministic at any worker
// count. Observe on the hot path is allocation-free except at window
// boundaries (and the one recycled histogram makes even those cheap).
package slo

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RuleKind selects the windowed statistic a rule evaluates.
type RuleKind string

const (
	// P999Above breaches when the window's p99.9 latency exceeds
	// BoundMS. Empty windows do not breach.
	P999Above RuleKind = "p999_above"
	// GoodputBelow breaches when the window's successful-request rate
	// falls below FloorRPS. Empty windows DO breach — a total outage
	// must look worse than a slow one.
	GoodputBelow RuleKind = "goodput_below"
	// ErrorRateAbove breaches when the window's error fraction exceeds
	// Ceiling. Empty windows do not breach.
	ErrorRateAbove RuleKind = "error_rate_above"
)

// Rule is one multi-window burn-rate rule: it breaches per window, and
// an incident opens once at least For of the last Config.Windows
// windows breached. The incident closes only when zero of the last
// Config.Windows windows breach — the asymmetry is hysteresis, so a
// flapping signal does not open and close an incident per window.
type Rule struct {
	Kind     RuleKind
	Name     string  // display name; defaults to the kind
	BoundMS  float64 // P999Above: latency bound in milliseconds
	FloorRPS float64 // GoodputBelow: goodput floor in requests/sec
	Ceiling  float64 // ErrorRateAbove: error fraction ceiling in [0,1]
	For      int     // windows (of the last Config.Windows) that must breach to open
	Severity string  // "page" or "warn"; defaults to "warn"
}

// Config sizes the monitor's windows and names its subject.
type Config struct {
	Window  sim.Time // window width (virtual nanoseconds)
	Windows int      // burn-rate ring length N: rules look at the last N windows
	Rules   []Rule
	Subject string // tenant/experiment name used in events and spans
	Machine int    // machine attributed in incident spans (-1: control plane)

	// KeepHistory retains every closed WindowStat for timeline views
	// (qsctl top). Off by default: long serving runs close millions of
	// windows and the monitor otherwise holds O(Windows) state.
	KeepHistory bool
}

// WindowStat is one closed window's aggregate.
type WindowStat struct {
	Index  int // absolute window index: window covers [Index*W, (Index+1)*W)
	Start  sim.Time
	End    sim.Time
	Count  uint64 // requests completed in the window
	Good   uint64 // non-error completions
	Errors uint64
	P999NS int64 // p99.9 latency (0 when empty)
	MaxNS  int64
}

// GoodputRPS returns the window's successful-request rate per second.
func (w *WindowStat) GoodputRPS() float64 {
	if w.End <= w.Start {
		return 0
	}
	return float64(w.Good) / (float64(w.End-w.Start) / 1e9)
}

// ErrorRate returns the window's error fraction (0 when empty).
func (w *WindowStat) ErrorRate() float64 {
	if w.Count == 0 {
		return 0
	}
	return float64(w.Errors) / float64(w.Count)
}

// Incident is one rule's violation interval.
type Incident struct {
	Rule     string
	Kind     RuleKind
	Severity string
	Subject  string
	OpenAt   sim.Time // end of the window that tripped the rule
	CloseAt  sim.Time // zero while open
	Open     bool
	Cause    string     // "kind subject" of the causal control-plane event, "" when none
	CauseAt  sim.Time   // timestamp of that event
	Span     obs.SpanID // incident span (recorded at close/Finish); 0 without a tracer
	Parent   obs.SpanID // open causal span at open time; 0 when none
}

// ruleState is one rule's burn-rate ring over the last N windows.
type ruleState struct {
	rule Rule
	ring []bool // breach flags, ring[i] for window (closed-index mod N)
	fill int    // windows seen, saturates at len(ring)
	open int    // index into Monitor.incidents of the open incident, -1
}

// Monitor folds completions into windows and evaluates SLO rules.
// The zero Monitor is not usable; construct with New. A nil *Monitor
// accepts Observe/Finish as no-ops so call sites need no guards.
type Monitor struct {
	cfg   Config
	rules []ruleState

	cur     *metrics.LogHistogram // recycled per-window latency histogram
	curIdx  int                   // absolute index of the window being filled
	started bool
	count   uint64 // completions in the current window
	good    uint64
	errs    uint64

	windowsClosed int
	breaches      int // total rule-window breaches across all rules
	incidents     []Incident
	history       []WindowStat

	// Hooks, both optional. Log receives incident open/close events and
	// is scanned backward for the causal control-plane event; Tracer
	// receives one incident span per incident (recorded at close, so
	// span IDs stay deterministic).
	Log    *obs.Log
	Tracer *obs.Tracer
}

// New creates a monitor. It panics on a malformed config — the config
// is authored (scenario spec or experiment code), not data-driven at
// runtime.
func New(cfg Config) *Monitor {
	if cfg.Window <= 0 {
		panic("slo: window width must be positive")
	}
	if cfg.Windows <= 0 {
		panic("slo: windows must be positive")
	}
	m := &Monitor{cfg: cfg, cur: metrics.NewLogHistogram(cfg.Subject)}
	for _, r := range cfg.Rules {
		if r.Name == "" {
			r.Name = string(r.Kind)
		}
		if r.Severity == "" {
			r.Severity = "warn"
		}
		if r.For <= 0 || r.For > cfg.Windows {
			panic(fmt.Sprintf("slo: rule %s: for=%d out of [1,%d]", r.Name, r.For, cfg.Windows))
		}
		switch r.Kind {
		case P999Above, GoodputBelow, ErrorRateAbove:
		default:
			panic(fmt.Sprintf("slo: rule %s: unknown kind %q", r.Name, r.Kind))
		}
		m.rules = append(m.rules, ruleState{rule: r, ring: make([]bool, cfg.Windows), open: -1})
	}
	return m
}

// Observe folds one request completion at virtual time at with the
// given latency. Any windows the clock has moved past close first —
// including empty gap windows, which is how a total outage becomes a
// goodput incident. Allocation-free between window boundaries.
func (m *Monitor) Observe(at sim.Time, latNS int64, isErr bool) {
	if m == nil {
		return
	}
	w := int(at / m.cfg.Window)
	if !m.started {
		m.started = true
		m.curIdx = w
	}
	for m.curIdx < w {
		m.closeWindow()
	}
	m.cur.Record(latNS)
	m.count++
	if isErr {
		m.errs++
	} else {
		m.good++
	}
}

// Finish closes every complete window up to horizon and records spans
// for incidents still open (clamped to horizon, left marked open).
// Call once when the run ends; a trailing partial window is discarded
// rather than evaluated against full-window bounds.
func (m *Monitor) Finish(horizon sim.Time) {
	if m == nil || !m.started {
		return
	}
	for sim.Time(m.curIdx+1)*m.cfg.Window <= horizon {
		m.closeWindow()
	}
	for i := range m.incidents {
		inc := &m.incidents[i]
		if !inc.Open || inc.Span != 0 {
			continue
		}
		end := horizon
		if end < inc.OpenAt {
			end = inc.OpenAt
		}
		inc.Span = m.recordSpan(inc, end, true)
	}
}

// closeWindow seals the window being filled, evaluates every rule
// against it, and resets the recycled aggregates for the next window.
func (m *Monitor) closeWindow() {
	stat := WindowStat{
		Index:  m.curIdx,
		Start:  sim.Time(m.curIdx) * m.cfg.Window,
		End:    sim.Time(m.curIdx+1) * m.cfg.Window,
		Count:  m.count,
		Good:   m.good,
		Errors: m.errs,
		P999NS: m.cur.Quantile(0.999),
		MaxNS:  m.cur.Max(),
	}
	m.windowsClosed++
	if m.cfg.KeepHistory {
		m.history = append(m.history, stat)
	}
	for i := range m.rules {
		m.evalRule(&m.rules[i], &stat)
	}
	m.cur.Reset()
	m.count, m.good, m.errs = 0, 0, 0
	m.curIdx++
}

// breached evaluates one rule against one closed window.
func breached(r *Rule, w *WindowStat) bool {
	switch r.Kind {
	case P999Above:
		return w.Count > 0 && float64(w.P999NS)/1e6 > r.BoundMS
	case GoodputBelow:
		return w.GoodputRPS() < r.FloorRPS
	case ErrorRateAbove:
		return w.Count > 0 && w.ErrorRate() > r.Ceiling
	}
	return false
}

// evalRule pushes the window's breach flag into the rule's ring and
// drives the incident state machine.
func (m *Monitor) evalRule(rs *ruleState, w *WindowStat) {
	b := breached(&rs.rule, w)
	rs.ring[w.Index%len(rs.ring)] = b
	if rs.fill < len(rs.ring) {
		rs.fill++
	}
	if b {
		m.breaches++
	}
	n := 0
	for _, v := range rs.ring[:rs.fill] {
		if v {
			n++
		}
	}
	switch {
	case rs.open < 0 && n >= rs.rule.For:
		m.openIncident(rs, w)
	case rs.open >= 0 && n == 0:
		m.closeIncident(rs, w)
	}
}

// openIncident records a new incident at the end of window w.
func (m *Monitor) openIncident(rs *ruleState, w *WindowStat) {
	inc := Incident{
		Rule:     rs.rule.Name,
		Kind:     rs.rule.Kind,
		Severity: rs.rule.Severity,
		Subject:  m.cfg.Subject,
		OpenAt:   w.End,
		Open:     true,
	}
	if ev, ok := m.cause(w.End); ok {
		inc.Cause = ev.Kind + " " + ev.Subject
		inc.CauseAt = ev.At
	}
	inc.Parent = m.Tracer.LastOpen(obs.KindPressure, obs.KindMigrate, obs.KindSched, obs.KindRepl)
	rs.open = len(m.incidents)
	m.incidents = append(m.incidents, inc)
	m.Log.Emitf(w.End, obs.KindIncident, m.cfg.Subject, -1, -1,
		"open %s severity=%s cause=%s", rs.rule.Name, inc.Severity, orNone(inc.Cause))
}

// closeIncident seals the rule's open incident at the end of window w
// and records its span — retroactively, so span IDs are assigned in
// close order and exports stay deterministic.
func (m *Monitor) closeIncident(rs *ruleState, w *WindowStat) {
	inc := &m.incidents[rs.open]
	inc.CloseAt = w.End
	inc.Open = false
	rs.open = -1
	inc.Span = m.recordSpan(inc, w.End, false)
	m.Log.Emitf(w.End, obs.KindIncident, m.cfg.Subject, -1, -1,
		"close %s after=%v", rs.rule.Name, w.End-inc.OpenAt)
}

// recordSpan emits the incident's span into the tracer (0 when no
// tracer is attached).
func (m *Monitor) recordSpan(inc *Incident, end sim.Time, stillOpen bool) obs.SpanID {
	if m.Tracer == nil {
		return 0
	}
	id := m.Tracer.RecordAt(obs.KindIncident, inc.Rule, m.cfg.Machine, inc.Parent, inc.OpenAt, end)
	m.Tracer.Str(id, "severity", inc.Severity)
	m.Tracer.Str(id, "subject", inc.Subject)
	if inc.Cause != "" {
		m.Tracer.Str(id, "cause", inc.Cause)
	}
	if stillOpen {
		m.Tracer.Num(id, "still_open", 1)
	}
	return id
}

// cause walks the attached control-plane log backward for the most
// recent fault/pressure/migration-family event at or before at.
func (m *Monitor) cause(at sim.Time) (obs.Event, bool) {
	return m.Log.Latest(func(e *obs.Event) bool {
		switch e.Kind {
		case obs.KindCrash, obs.KindFault, obs.KindMigrate,
			obs.KindPressure, obs.KindRepl, obs.KindSuspect:
			return e.At <= at
		}
		return false
	})
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// Incidents returns every incident in open order (not a copy).
func (m *Monitor) Incidents() []Incident {
	if m == nil {
		return nil
	}
	return m.incidents
}

// History returns the closed windows retained under KeepHistory.
func (m *Monitor) History() []WindowStat {
	if m == nil {
		return nil
	}
	return m.history
}

// WindowsClosed returns how many windows have been sealed.
func (m *Monitor) WindowsClosed() int {
	if m == nil {
		return 0
	}
	return m.windowsClosed
}

// Breaches returns the total number of rule-window breaches.
func (m *Monitor) Breaches() int {
	if m == nil {
		return 0
	}
	return m.breaches
}

// Opened returns how many incidents were opened.
func (m *Monitor) Opened() int {
	if m == nil {
		return 0
	}
	return len(m.incidents)
}

// Resolved returns how many incidents opened and then closed.
func (m *Monitor) Resolved() int {
	if m == nil {
		return 0
	}
	n := 0
	for i := range m.incidents {
		if !m.incidents[i].Open {
			n++
		}
	}
	return n
}

// OpenCount returns how many incidents are currently open.
func (m *Monitor) OpenCount() int {
	if m == nil {
		return 0
	}
	return len(m.incidents) - m.Resolved()
}
