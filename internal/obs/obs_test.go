package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Start(KindRPC, "x", 0, 0)
	if id != 0 {
		t.Errorf("nil Start = %d, want 0", id)
	}
	tr.End(id)
	tr.SetRoute(id, 0, 1)
	tr.SetBytes(id, 42)
	tr.SetErr(id, nil)
	tr.Num(id, "k", 1)
	tr.Str(id, "k", "v")
	tr.SetNext(id)
	if tr.TakeNext() != 0 {
		t.Error("nil TakeNext must be 0")
	}
	if len(tr.SpansByID()) != 0 || tr.SpansByID() != nil || tr.Span(1) != nil {
		t.Error("nil tracer must hold nothing")
	}
}

func TestNilTracerDoesNotAllocate(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start(KindRPC, "call", 0, tr.TakeNext())
		tr.SetRoute(sp, 0, 1)
		tr.SetBytes(sp, 128)
		tr.End(sp)
	})
	if allocs != 0 {
		t.Errorf("nil tracer allocated %.1f objects per op, want 0", allocs)
	}
}

func TestNilTelemetrySafe(t *testing.T) {
	var tl *Telemetry
	if tl.Register("s", 0, func() float64 { return 1 }) != nil {
		t.Error("nil Register must return nil series")
	}
	tl.Start()
}

func TestSpanParentingAndTraceID(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)

	root := tr.Start(KindPressure, "mem", 0, 0)
	child := tr.Start(KindMigrate, "p1", 0, root)
	grand := tr.Start(KindPhase, "freeze", 0, child)
	other := tr.Start(KindRPC, "call", 1, 0)

	rs, cs, gs, os := tr.Span(root), tr.Span(child), tr.Span(grand), tr.Span(other)
	if rs.TraceID != root {
		t.Errorf("root TraceID = %d, want its own ID %d", rs.TraceID, root)
	}
	if cs.TraceID != root || gs.TraceID != root {
		t.Error("descendants must inherit the root's TraceID")
	}
	if cs.Parent != root || gs.Parent != child {
		t.Error("parent links wrong")
	}
	if os.TraceID != other || os.Parent != 0 {
		t.Error("independent root must start its own trace")
	}
	if rs.From != -1 || rs.To != -1 {
		t.Error("route must default to -1/-1")
	}
}

func TestSpanIDsAreDense(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	for i := 1; i <= 5; i++ {
		if id := tr.Start(KindRPC, "c", 0, 0); id != SpanID(i) {
			t.Fatalf("span %d got ID %d", i, id)
		}
	}
}

func TestEndRecordsKernelTime(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	var sp SpanID
	k.After(time.Millisecond, func() { sp = tr.Start(KindInvoke, "get", 0, 0) })
	k.After(3*time.Millisecond, func() { tr.End(sp) })
	k.RunUntil(sim.Time(10 * time.Millisecond))
	s := tr.Span(sp)
	if s.Start != sim.Time(time.Millisecond) || s.End != sim.Time(3*time.Millisecond) {
		t.Errorf("span times = [%d, %d]", s.Start, s.End)
	}
	if !s.Done {
		t.Error("ended span not marked done")
	}
}

func TestOpenSpanClampsOnExport(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	var sp SpanID
	k.After(time.Millisecond, func() { sp = tr.Start(KindInvoke, "get", 0, 0) })
	k.RunUntil(sim.Time(5 * time.Millisecond))
	s := tr.Span(sp)
	if s.Done {
		t.Fatal("span should be open")
	}
	if end := tr.clampEnd(s); end != k.Now() {
		t.Errorf("clampEnd = %d, want now %d", end, k.Now())
	}
}

func TestSetNextIsOneShot(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	sp := tr.Start(KindInvoke, "get", 0, 0)
	tr.SetNext(sp)
	if got := tr.TakeNext(); got != sp {
		t.Errorf("TakeNext = %d, want %d", got, sp)
	}
	if got := tr.TakeNext(); got != 0 {
		t.Errorf("second TakeNext = %d, want 0", got)
	}
}

func TestTelemetrySamplesOnCadence(t *testing.T) {
	k := sim.NewKernel(1)
	tl := NewTelemetry(k, time.Millisecond)
	v := 0.0
	s := tl.Register("m0.cpu_util", 0, func() float64 { v += 0.1; return v })
	tl.Start()
	tl.Start() // idempotent
	k.RunUntil(sim.Time(5 * time.Millisecond))
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("got %d samples over 5ms at 1ms cadence, want 5", len(pts))
	}
	if pts[0].At != sim.Time(time.Millisecond) || pts[0].Value != 0.1 {
		t.Errorf("first sample = %+v", pts[0])
	}
}

// buildRun records a tiny run with a pressure-caused migration, an RPC,
// and one telemetry series, all at fixed kernel times.
func buildRun(t testing.TB) (*Tracer, *Telemetry) {
	t.Helper()
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	tl := NewTelemetry(k, time.Millisecond)
	cpu := 0.0
	tl.Register("m0.cpu_util", 0, func() float64 { cpu += 0.2; return cpu })
	tl.Start()

	var pressure, mig, rpc SpanID
	k.After(time.Millisecond, func() {
		pressure = tr.Start(KindPressure, "mem", 0, 0)
		tr.Num(pressure, "pressure", 0.95)
		mig = tr.Start(KindMigrate, "shard-0", 0, pressure)
		tr.SetRoute(mig, 0, 1)
		tr.SetBytes(mig, 1<<20)
	})
	k.After(2*time.Millisecond, func() {
		rpc = tr.Start(KindRPC, "kv.Get", 0, 0)
		tr.SetRoute(rpc, 0, 1)
	})
	k.After(3*time.Millisecond, func() {
		tr.End(rpc)
		tr.End(mig)
		tr.End(pressure)
	})
	k.RunUntil(sim.Time(4 * time.Millisecond))
	return tr, tl
}

// records builds, straight from a run's tracer and telemetry, the
// Records that reading the run's Chrome trace must give back.
func records(tr *Tracer, tl *Telemetry) []Record {
	var out []Record
	for _, s := range tr.SpansByID() {
		rec := Record{
			Type:    "span",
			Trace:   uint64(s.TraceID),
			ID:      uint64(s.ID),
			Parent:  uint64(s.Parent),
			Kind:    s.Kind,
			Name:    s.Name,
			Machine: s.Machine,
			From:    s.From,
			To:      s.To,
			Bytes:   s.Bytes,
			StartNS: int64(s.Start),
			EndNS:   int64(tr.clampEnd(&s)),
			Open:    !s.Done,
			Err:     s.Err,
		}
		for _, a := range s.Attrs {
			if a.IsNum {
				if rec.Nums == nil {
					rec.Nums = map[string]float64{}
				}
				rec.Nums[a.Key] = finite(a.Num)
			} else {
				if rec.Attrs == nil {
					rec.Attrs = map[string]string{}
				}
				rec.Attrs[a.Key] = a.Str
			}
		}
		out = append(out, rec)
	}
	for _, p := range tl.probes {
		for _, pt := range p.series.Points() {
			out = append(out, Record{Type: "sample", Series: p.series.Name, Machine: p.machine,
				From: -1, To: -1, AtNS: int64(pt.At), Value: finite(pt.Value)})
		}
	}
	return out
}

// TestChromeTraceRoundTrip: reading a run's Chrome trace gives back
// every span and sample of the run, field for field. The run has an
// open span, a control-plane span (machine -1), string and numeric
// attributes, an error, a route, and span ids above 2^53 that differ
// by one, which a float64 decode cannot tell apart.
func TestChromeTraceRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracerWithBase(k, 1<<60)
	tl := NewTelemetry(k, time.Millisecond)
	util := 0.0
	tl.Register("m0.cpu_util", 0, func() float64 { util += 0.125; return util })
	tl.Register("control.queue", -1, func() float64 { return 3 })
	tl.Start()
	k.After(time.Millisecond+1, func() {
		sched := tr.Start(KindSched, "rebalance", -1, 0)
		tr.Str(sched, "reason", "skew")
		tr.Num(sched, "score", 0.3)
		mig := tr.Start(KindMigrate, "shard-0", 0, sched)
		tr.SetRoute(mig, 0, 1)
		tr.SetBytes(mig, 1<<20)
		tr.SetErr(mig, errors.New("destination full"))
		k.After(1500*time.Microsecond, func() {
			tr.End(mig)
			tr.End(sched)
		})
		tr.Start(KindPressure, "mem", 1, 0) // never ends
	})
	k.RunUntil(sim.Time(4 * time.Millisecond))

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, tl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := records(tr, tl)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back:\n%+v\nwant:\n%+v", got, want)
	}
	if got[0].ID != 1<<60+1 || got[1].ID != 1<<60+2 || !got[2].Open || got[0].Machine != -1 {
		t.Errorf("spans = %+v", got[:3])
	}
}

// TestReadChromeTraceRejects: each malformed file fails with an error
// that names the event and says what is wrong with it.
func TestReadChromeTraceRejects(t *testing.T) {
	const span = `{"name":"rpc:get","cat":"rpc","ph":"X","ts":1,"dur":2,"pid":1,"tid":1,"args":{"span":7,"parent":0,"trace":7}}`
	doc := func(events ...string) string {
		return `{"displayTimeUnit":"ms","traceEvents":[` + strings.Join(events, ",") + `]}`
	}
	for _, tc := range []struct{ src, want string }{
		{`{"traceEvents":[`, "byte 16"},
		{`{"displayTimeUnit":"ns","traceEvents":[]}`, `displayTimeUnit = "ns"`},
		{doc(`{"ph":"B"}`), `event 0 (ph=B "")`},
		{doc(`{"name":"x","ph":"M","pid":1}`), "event 0 (ph=M \"x\"): malformed metadata"},
		{doc(`{"name":"m0.cpu","ph":"C","ts":1,"pid":1,"args":{}}`), "missing name/ts/pid/value"},
		{doc(strings.Replace(span, `"dur":2`, `"dur":-2`, 1)), "negative duration -2"},
		{doc(strings.Replace(span, `"ts":1,`, ``, 1)), "missing name/ts/dur/pid"},
		{doc(strings.Replace(span, `"rpc:get"`, `"get"`, 1)), `name does not start with cat "rpc:"`},
		{doc(strings.Replace(span, `"span":7`, `"span":0`, 1)), "missing args.span"},
		{doc(strings.Replace(span, `"span":7`, `"span":1e300`, 1)), "args.span = 1e300 is not a uint64"},
		{doc(strings.Replace(span, `"parent":0`, `"parent":-1`, 1)), "args.parent = -1 is not a uint64"},
		{doc(strings.Replace(span, `"parent":0`, `"open":1`, 1)), "args.open = 1 is not a bool"},
		{doc(strings.Replace(span, `"parent":0`, `"note":[1]`, 1)), "args.note = [1] is neither a string nor a number"},
		{doc(strings.Replace(span, `"ts":1`, `"ts":1e300`, 1)), "out of range"},
		{doc(span, span), "event 1 (ph=X \"rpc:get\"): repeats span id 7"},
	} {
		_, err := ReadChromeTrace(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s:\n  err = %v, want it to contain %q", tc.src, err, tc.want)
		}
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr, tl := buildRun(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	foundMigrate := false
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if name, _ := ev["name"].(string); strings.HasPrefix(name, "migrate:") {
			foundMigrate = true
			args := ev["args"].(map[string]any)
			if args["parent"].(float64) == 0 {
				t.Error("migrate event lost its parent")
			}
			if args["from"].(float64) != 0 || args["to"].(float64) != 1 {
				t.Errorf("migrate route args = %v", args)
			}
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["C"] == 0 {
		t.Errorf("missing event phases: %v", phases)
	}
	if !foundMigrate {
		t.Error("no migrate span event")
	}
}

func TestExportSanitizesNonFiniteValues(t *testing.T) {
	k := sim.NewKernel(1)
	tr := NewTracer(k)
	sp := tr.Start(KindPressure, "cpu", 0, 0)
	tr.Num(sp, "inf", math.Inf(1))
	tr.Num(sp, "neginf", math.Inf(-1))
	tr.Num(sp, "nan", math.NaN())
	tr.End(sp)
	tl := NewTelemetry(k, time.Millisecond)
	tl.Register("m0.bad", 0, func() float64 { return math.Inf(1) })
	tl.Start()
	k.RunUntil(sim.Time(2 * time.Millisecond))

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, tr, tl); err != nil {
		t.Fatalf("chrome export rejected non-finite values: %v", err)
	}
	if !json.Valid(chrome.Bytes()) {
		t.Error("chrome export is not valid JSON")
	}
	recs, err := ReadChromeTrace(&chrome)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		for key, v := range r.Nums {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("num %q survived as non-finite", key)
			}
		}
		if math.IsInf(r.Value, 0) || math.IsNaN(r.Value) {
			t.Error("sample value survived as non-finite")
		}
	}
}

func TestAnalyzeReport(t *testing.T) {
	tr, tl := buildRun(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, tl); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rp := Analyze(recs)
	if rp.Spans != len(tr.SpansByID()) || rp.Samples == 0 {
		t.Errorf("report counts: %d spans %d samples", rp.Spans, rp.Samples)
	}
	if len(rp.Migrations) != 1 {
		t.Fatalf("got %d migrations, want 1", len(rp.Migrations))
	}
	m := rp.Migrations[0]
	if m.Cause != "pressure:mem m0" {
		t.Errorf("migration cause = %q", m.Cause)
	}
	if m.LatencyMS != 2 {
		t.Errorf("migration latency = %v ms, want 2", m.LatencyMS)
	}
	if len(rp.Methods) != 1 || rp.Methods[0].Method != "kv.Get" || rp.Methods[0].Count != 1 {
		t.Errorf("methods = %+v", rp.Methods)
	}
	if rp.Methods[0].P50MS != 1 || rp.Methods[0].P99MS != 1 {
		t.Errorf("percentiles = %+v", rp.Methods[0])
	}
	if len(rp.Machines) != 1 || rp.Machines[0].Machine != 0 {
		t.Fatalf("machines = %+v", rp.Machines)
	}
	if rp.Machines[0].CPUMax == 0 {
		t.Error("cpu max not captured")
	}
	var report strings.Builder
	rp.Print(&report, 5)
	for _, want := range []string{"slowest migrations", "call latency by method", "per-machine utilization", "kv.Get", "pressure:mem m0"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}
