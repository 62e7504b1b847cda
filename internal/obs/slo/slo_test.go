package slo

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

const win = sim.Time(100 * time.Millisecond)

// feedWindow drives n completions spread across window idx with the
// given latency.
func feedWindow(m *Monitor, idx int, n int, latNS int64, isErr bool) {
	start := sim.Time(idx) * win
	step := win / sim.Time(n+1)
	for i := 0; i < n; i++ {
		m.Observe(start+sim.Time(i+1)*step, latNS, isErr)
	}
}

func TestMonitorOpensAndClosesIncident(t *testing.T) {
	tl := obs.NewLog()
	k := sim.NewKernel(1)
	tr := obs.NewTracer(k)
	m := New(Config{
		Window: win, Windows: 5, Subject: "api", Machine: -1,
		Rules: []Rule{{Kind: P999Above, BoundMS: 50, For: 3, Severity: "page"}},
	})
	m.Log = tl
	m.Tracer = tr

	// A control-plane event before the breach: becomes the cause.
	tl.Emitf(sim.Time(250*time.Millisecond), obs.KindCrash, "m3", 3, -1, "fail-stop")

	for i := 0; i < 3; i++ {
		feedWindow(m, i, 50, int64(10*time.Millisecond), false)
	}
	for i := 3; i < 8; i++ { // five slow windows; third closes -> open
		feedWindow(m, i, 50, int64(80*time.Millisecond), false)
	}
	if got := m.Opened(); got != 1 {
		t.Fatalf("Opened = %d, want 1", got)
	}
	inc := m.Incidents()[0]
	// Breaching windows are 3,4,5...; the rule (for=3) trips when
	// window 5 closes, i.e. at the end of window 5 = 600ms.
	if want := sim.Time(600 * time.Millisecond); inc.OpenAt != want {
		t.Errorf("OpenAt = %v, want %v", inc.OpenAt, want)
	}
	if !inc.Open || inc.Severity != "page" {
		t.Errorf("incident = %+v, want open page", inc)
	}
	if inc.Cause != "crash m3" {
		t.Errorf("Cause = %q, want \"crash m3\"", inc.Cause)
	}

	// Recovery: fast windows until zero of the last 5 breach.
	for i := 8; i < 14; i++ {
		feedWindow(m, i, 50, int64(10*time.Millisecond), false)
	}
	m.Finish(sim.Time(14) * win)
	inc = m.Incidents()[0]
	if inc.Open {
		t.Fatal("incident did not close after recovery")
	}
	// Last breaching window is 7; it leaves the 5-window ring when
	// window 12 closes, at 1300ms.
	if want := sim.Time(1300 * time.Millisecond); inc.CloseAt != want {
		t.Errorf("CloseAt = %v, want %v", inc.CloseAt, want)
	}

	// The incident span: recorded at close, spanning [open, close].
	sp := tr.Span(inc.Span)
	if sp == nil || sp.Kind != obs.KindIncident {
		t.Fatalf("incident span missing: %+v", sp)
	}
	if sp.Start != inc.OpenAt || sp.End != inc.CloseAt || !sp.Done {
		t.Errorf("span interval [%v,%v] done=%v, want [%v,%v] done", sp.Start, sp.End, sp.Done, inc.OpenAt, inc.CloseAt)
	}

	// Log carries exactly one open and one close event.
	incEvents := tl.Filter(obs.KindIncident)
	if len(incEvents) != 2 {
		t.Fatalf("incident events = %d, want 2", len(incEvents))
	}
	if !strings.HasPrefix(incEvents[0].Detail, "open ") || !strings.HasPrefix(incEvents[1].Detail, "close ") {
		t.Errorf("event details = %q, %q", incEvents[0].Detail, incEvents[1].Detail)
	}
}

func TestMonitorGapWindowsBreachGoodput(t *testing.T) {
	m := New(Config{
		Window: win, Windows: 4, Subject: "kv",
		Rules: []Rule{{Kind: GoodputBelow, FloorRPS: 100, For: 2}},
	})
	// Healthy traffic (500 rps), then a dead gap of 5 windows: the gap
	// windows close empty and must breach the goodput floor.
	for i := 0; i < 3; i++ {
		feedWindow(m, i, 50, int64(time.Millisecond), false)
	}
	feedWindow(m, 8, 50, int64(time.Millisecond), false) // resumes after gap
	if m.Opened() != 1 {
		t.Fatalf("Opened = %d, want 1 (outage must open via empty windows)", m.Opened())
	}
	inc := m.Incidents()[0]
	// Gap windows 3 and 4 close when the clock reaches window 8; the
	// second empty window trips for=2 at its end, 500ms.
	if want := sim.Time(500 * time.Millisecond); inc.OpenAt != want {
		t.Errorf("OpenAt = %v, want %v", inc.OpenAt, want)
	}
	// Recovery then closes it once 4 consecutive healthy windows pass.
	for i := 9; i < 14; i++ {
		feedWindow(m, i, 50, int64(time.Millisecond), false)
	}
	if m.Resolved() != 1 {
		t.Fatalf("Resolved = %d, want 1", m.Resolved())
	}
}

func TestMonitorErrorRateRule(t *testing.T) {
	m := New(Config{
		Window: win, Windows: 3, Subject: "api",
		Rules: []Rule{{Kind: ErrorRateAbove, Ceiling: 0.10, For: 1}},
	})
	feedWindow(m, 0, 90, int64(time.Millisecond), false)
	feedWindow(m, 1, 70, int64(time.Millisecond), false)
	// Window 1 gains 30 errors: 30% > 10% ceiling.
	start := sim.Time(1) * win
	for i := 0; i < 30; i++ {
		m.Observe(start+sim.Time(i+1)*(win/40), int64(time.Millisecond), true)
	}
	m.Finish(3 * win)
	if m.Opened() != 1 {
		t.Fatalf("Opened = %d, want 1", m.Opened())
	}
	if m.Breaches() != 1 {
		t.Errorf("Breaches = %d, want 1", m.Breaches())
	}
}

func TestMonitorFinishLeavesOpenIncidentMarked(t *testing.T) {
	k := sim.NewKernel(1)
	tr := obs.NewTracer(k)
	m := New(Config{
		Window: win, Windows: 3, Subject: "api", Machine: -1,
		Rules: []Rule{{Kind: P999Above, BoundMS: 10, For: 1}},
	})
	m.Tracer = tr
	feedWindow(m, 0, 20, int64(50*time.Millisecond), false)
	feedWindow(m, 1, 20, int64(50*time.Millisecond), false)
	horizon := sim.Time(2)*win + win/2 // mid-window-2: partial window dropped
	m.Finish(horizon)
	if m.WindowsClosed() != 2 {
		t.Fatalf("WindowsClosed = %d, want 2 (partial window must not close)", m.WindowsClosed())
	}
	if m.Opened() != 1 || m.Resolved() != 0 || m.OpenCount() != 1 {
		t.Fatalf("opened/resolved/open = %d/%d/%d", m.Opened(), m.Resolved(), m.OpenCount())
	}
	inc := m.Incidents()[0]
	sp := tr.Span(inc.Span)
	if sp == nil {
		t.Fatal("still-open incident must get a span at Finish")
	}
	if sp.End != horizon {
		t.Errorf("span end = %v, want horizon %v", sp.End, horizon)
	}
	found := false
	for _, a := range sp.Attrs {
		if a.Key == "still_open" {
			found = true
		}
	}
	if !found {
		t.Error("still-open span missing still_open attr")
	}
}

func TestObserveZeroAllocSteadyState(t *testing.T) {
	m := New(Config{
		Window: win, Windows: 5, Subject: "api",
		Rules: []Rule{{Kind: P999Above, BoundMS: 50, For: 3}},
	})
	m.Observe(1, int64(time.Millisecond), false)
	at := sim.Time(2)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(at, int64(time.Millisecond), false)
		at++
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f/op within a window, want 0", allocs)
	}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.Observe(1, 2, false)
	m.Finish(10)
	if m.Opened() != 0 || m.WindowsClosed() != 0 || m.Incidents() != nil {
		t.Error("nil monitor must report zeroes")
	}
}

// buildTracer records a mix of causal trees: fast clean trees, one
// slow tree, one erroring tree.
func buildTracer(t *testing.T, k *sim.Kernel) *obs.Tracer {
	t.Helper()
	tr := obs.NewTracer(k)
	mk := func(at sim.Time, dur sim.Time, err bool) {
		k.After(time.Duration(at), func() {
			root := tr.Start(obs.KindInvoke, "get", 0, 0)
			child := tr.Start(obs.KindRPC, "call", 0, root)
			k.After(time.Duration(dur), func() {
				if err {
					tr.SetErr(child, errFake{})
				}
				tr.End(child)
				tr.End(root)
			})
		})
	}
	for i := 0; i < 20; i++ {
		mk(sim.Time(i)*sim.Time(10*time.Millisecond), sim.Time(time.Millisecond), false)
	}
	mk(sim.Time(200*time.Millisecond), sim.Time(90*time.Millisecond), false) // tail
	mk(sim.Time(300*time.Millisecond), sim.Time(time.Millisecond), true)     // error
	k.RunUntil(sim.Time(time.Second))
	return tr
}

type errFake struct{}

func (errFake) Error() string { return "boom" }

func TestFilterKeepsTailErrAndHead(t *testing.T) {
	k := sim.NewKernel(1)
	tr := buildTracer(t, k)
	cfg := SampleConfig{Seed: 42, HeadEvery: 7, TailNS: int64(50 * time.Millisecond)}
	sampled, st := Filter(tr, nil, cfg)

	if st.Trees != 22 {
		t.Fatalf("Trees = %d, want 22", st.Trees)
	}
	if st.Tail != 1 || st.Err != 1 {
		t.Errorf("Tail/Err = %d/%d, want 1/1", st.Tail, st.Err)
	}
	if st.Kept >= st.Trees {
		t.Errorf("sampling kept everything (%d/%d)", st.Kept, st.Trees)
	}
	if st.KeptSpans != sampled.Len() {
		t.Errorf("KeptSpans = %d but tracer holds %d", st.KeptSpans, sampled.Len())
	}

	// Subset property: every sampled span is byte-identical to the full
	// tracer's span with the same ID.
	for _, s := range sampled.SpansByID() {
		fullSpan := tr.Span(s.ID)
		if fullSpan == nil {
			t.Fatalf("sampled span %d not in full tracer", s.ID)
		}
		if !reflect.DeepEqual(s, *fullSpan) {
			t.Errorf("span %d differs:\nsampled %+v\nfull    %+v", s.ID, s, *fullSpan)
		}
	}

	// Determinism: the same filter twice yields the same result.
	again, st2 := Filter(tr, nil, cfg)
	if !reflect.DeepEqual(sampled.SpansByID(), again.SpansByID()) || st != st2 {
		t.Error("Filter is not deterministic")
	}
}

func TestFilterIncidentOverlapRetains(t *testing.T) {
	k := sim.NewKernel(1)
	tr := buildTracer(t, k)
	// An incident covering 40–60ms: the fast trees started at 40 and
	// 50ms overlap it and must be retained even though they are neither
	// slow nor erroring.
	incs := []Incident{{OpenAt: sim.Time(40 * time.Millisecond), CloseAt: sim.Time(60 * time.Millisecond)}}
	_, st := Filter(tr, incs, SampleConfig{TailNS: int64(50 * time.Millisecond)})
	if st.Incident < 2 {
		t.Errorf("Incident-kept trees = %d, want >= 2", st.Incident)
	}
	// Without the incident those trees are dropped.
	_, st2 := Filter(tr, nil, SampleConfig{TailNS: int64(50 * time.Millisecond)})
	if st2.Incident != 0 || st2.Kept >= st.Kept {
		t.Errorf("incident overlap did not change retention: %d vs %d", st2.Kept, st.Kept)
	}
}

func TestFilterBudgetIsPrefixClosed(t *testing.T) {
	k := sim.NewKernel(1)
	tr := obs.NewTracer(k)
	// One deep tree: root -> chain of 9 children.
	root := tr.Start(obs.KindInvoke, "deep", 0, 0)
	parent := root
	for i := 0; i < 9; i++ {
		parent = tr.Start(obs.KindRPC, "hop", 0, parent)
	}
	k.RunUntil(sim.Time(time.Second))
	sampled, st := Filter(tr, nil, SampleConfig{TailNS: 0, Budget: 4})
	if st.KeptSpans != 4 || st.Truncated != 6 {
		t.Fatalf("KeptSpans/Truncated = %d/%d, want 4/6", st.KeptSpans, st.Truncated)
	}
	// Every kept non-root span's parent must also be kept.
	for _, s := range sampled.SpansByID() {
		if s.Parent != 0 && sampled.Span(s.Parent) == nil {
			t.Errorf("span %d orphaned: parent %d dropped", s.ID, s.Parent)
		}
	}
}
