package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodTrace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"args":{"name":"machine 0"}},
{"name":"pressure:mem","cat":"pressure","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span":1,"parent":0,"trace":1}},
{"name":"migrate:shard-0","cat":"migrate","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{"span":2,"parent":1,"trace":1}},
{"name":"m0.cpu_util","ph":"C","ts":1,"pid":1,"args":{"value":0.5}}
]}`

func TestGoodTracePasses(t *testing.T) {
	path := write(t, "good.json", goodTrace)
	var out, errb bytes.Buffer
	if code := run([]string{"-require-causal", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestInvalidJSONFails(t *testing.T) {
	path := write(t, "bad.json", `{"traceEvents": [`)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "not valid JSON") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestMissingCausalChainFails(t *testing.T) {
	// A migrate span with no pressure/sched/repl ancestor.
	path := write(t, "nocausal.json", `{"displayTimeUnit":"ms","traceEvents":[
{"name":"migrate:x","cat":"migrate","ph":"X","ts":1,"dur":1,"pid":1,"tid":1,"args":{"span":1,"parent":0,"trace":1}}
]}`)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("without -require-causal exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-require-causal", path}, &out, &errb); code != 1 {
		t.Fatalf("with -require-causal exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "no migrate span descends") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestMalformedEventFails(t *testing.T) {
	path := write(t, "malformed.json", `{"displayTimeUnit":"ms","traceEvents":[
{"name":"x","cat":"rpc","ph":"X","ts":1,"pid":1,"args":{"span":1}}
]}`)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "missing name/ts/dur/pid") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestMinEvents(t *testing.T) {
	path := write(t, "tiny.json", goodTrace)
	var out, errb bytes.Buffer
	if code := run([]string{"-min-events", "100", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "want >= 100") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestNoArgsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// fullTrace has four spans: two trees (1←2, 3) plus a standalone 4.
const fullTrace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"rpc:get","cat":"rpc","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span":1,"parent":0,"trace":1}},
{"name":"rpc:apply","cat":"rpc","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{"span":2,"parent":1,"trace":1}},
{"name":"rpc:get","cat":"rpc","ph":"X","ts":4,"dur":2,"pid":1,"tid":1,"args":{"span":3,"parent":0,"trace":3}},
{"name":"rpc:get","cat":"rpc","ph":"X","ts":6,"dur":2,"pid":1,"tid":1,"args":{"span":4,"parent":0,"trace":4}}
]}`

// sampledOK keeps the 1←2 tree verbatim: a legal subset.
const sampledOK = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"rpc:get","cat":"rpc","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span":1,"parent":0,"trace":1}},
{"name":"rpc:apply","cat":"rpc","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{"span":2,"parent":1,"trace":1}}
]}`

func TestSubsetPasses(t *testing.T) {
	fullPath := write(t, "full.json", fullTrace)
	path := write(t, "sampled.json", sampledOK)
	var out, errb bytes.Buffer
	if code := run([]string{"-subset", fullPath, path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	// 2 of 4 spans = 0.5; a 0.5 bound holds, a 0.25 bound must not.
	errb.Reset()
	if code := run([]string{"-subset", fullPath, "-max-frac", "0.5", path}, &out, &errb); code != 0 {
		t.Fatalf("-max-frac 0.5 exit = %d (stderr: %s)", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-subset", fullPath, "-max-frac", "0.25", path}, &out, &errb); code != 1 {
		t.Fatalf("-max-frac 0.25 exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "exceeds -max-frac") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestSubsetRejectsMutatedSpan(t *testing.T) {
	fullPath := write(t, "full.json", fullTrace)
	// Same span ID, different duration: fields must be identical.
	path := write(t, "mutated.json", strings.Replace(sampledOK, `"dur":3`, `"dur":4`, 1))
	var out, errb bytes.Buffer
	if code := run([]string{"-subset", fullPath, path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "differs from full export") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestSubsetRejectsUnknownAndOrphanSpans(t *testing.T) {
	fullPath := write(t, "full.json", fullTrace)
	// Span 9 does not exist in the full export.
	unknown := write(t, "unknown.json", strings.Replace(sampledOK, `"span":2`, `"span":9`, 1))
	var out, errb bytes.Buffer
	if code := run([]string{"-subset", fullPath, unknown}, &out, &errb); code != 1 {
		t.Fatalf("unknown span: exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "not present in full export") {
		t.Errorf("stderr = %q", errb.String())
	}
	// Span 2 kept without its parent 1: prefix-closure violated.
	orphan := write(t, "orphan.json", `{"displayTimeUnit":"ms","traceEvents":[
{"name":"rpc:apply","cat":"rpc","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{"span":2,"parent":1,"trace":1}}
]}`)
	errb.Reset()
	if code := run([]string{"-subset", fullPath, orphan}, &out, &errb); code != 1 {
		t.Fatalf("orphan: exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "parent 1 was dropped") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestRejectsBadMaxFrac: a NaN, infinite or negative -max-frac would
// skip the sampled-volume bound (it is tested as maxFrac > 0), so a full
// export passed as its own sample; one above 1 bounds nothing. Each exits
// 2 with the usage message, as a bad benchdiff -tol does.
func TestRejectsBadMaxFrac(t *testing.T) {
	fullPath := write(t, "full.json", goodTrace)
	for _, frac := range []string{"NaN", "+Inf", "-Inf", "-1", "-0.1", "1.5"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-subset", fullPath, "-max-frac", frac, fullPath}, &stdout, &stderr); code != 2 {
			t.Errorf("-max-frac %s: exit %d, want 2", frac, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "usage:") {
			t.Errorf("-max-frac %s: stdout %q, stderr %q; want only the usage message", frac, stdout.String(), stderr.String())
		}
	}
	// The bounds themselves are fractions: 0 is unbounded, and the full
	// export is its own subset at 1.
	for _, frac := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-subset", fullPath, "-max-frac", frac, fullPath}, &stdout, &stderr); code != 0 {
			t.Errorf("-max-frac %s: exit %d, want 0 (stderr %q)", frac, code, stderr.String())
		}
	}
}

func TestMaxFracRequiresSubset(t *testing.T) {
	path := write(t, "good.json", goodTrace)
	var out, errb bytes.Buffer
	if code := run([]string{"-max-frac", "0.1", path}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// FuzzTraceFile is the input-boundary contract of the trace files
// tracecheck reads: for any bytes, with and without -require-causal, the
// check passes or fails with an error that says where — a byte offset, an
// event, a span or a document field — and never panics or hangs. The seeds
// in testdata/fuzz are a -scale test -trace-dir export and hand-written
// edge files: truncated JSON, a repeated span id, a span that ends before
// it starts, an unknown parent, huge ids and a parent cycle.
func FuzzTraceFile(f *testing.F) {
	f.Add([]byte(goodTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, causal := range []bool{false, true} {
			recs, err := obs.ReadChromeTrace(bytes.NewReader(data))
			if err == nil {
				err = check(recs, causal, 1)
			}
			if err == nil {
				continue
			}
			msg := err.Error()
			if !strings.Contains(msg, "byte ") && !strings.Contains(msg, "event") && !strings.Contains(msg, "span ") &&
				!strings.Contains(msg, "displayTimeUnit") {
				t.Errorf("error says nothing of where: %v", err)
			}
		}
	})
}

// TestIDsAbove2To53AreDistinct: span ids are read as exact uint64s, so
// two ids above 2^53 that differ by one name two spans, not a repeat.
func TestIDsAbove2To53AreDistinct(t *testing.T) {
	path := write(t, "big.json", `{"displayTimeUnit":"ms","traceEvents":[
{"name":"pressure:mem","cat":"pressure","ph":"X","ts":1,"dur":5,"pid":1,"tid":1,"args":{"span":9007199254740992,"parent":0,"trace":9007199254740992}},
{"name":"migrate:p","cat":"migrate","ph":"X","ts":2,"dur":3,"pid":1,"tid":1,"args":{"span":9007199254740993,"parent":9007199254740992,"trace":9007199254740992}}
]}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-require-causal", path}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
}
