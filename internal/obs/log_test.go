package obs

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

func TestEmitAndFilter(t *testing.T) {
	l := NewLog()
	l.Emit(Event{At: 10, Kind: KindSpawn, Subject: "mem-1", To: 0, From: -1})
	l.Emitf(20, KindMigrate, "mem-1", 0, 1, "bytes=%d", 1024)
	l.Emit(Event{At: 30, Kind: KindSplit, Subject: "mem-1", From: -1, To: -1})
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	migs := l.Filter(KindMigrate)
	if len(migs) != 1 || migs[0].Detail() != "bytes=1024" {
		t.Errorf("Filter(migrate) = %+v", migs)
	}
	if l.Count(KindSplit) != 1 || l.Count(KindMerge) != 0 {
		t.Error("Count wrong")
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Emit(Event{Kind: KindSpawn})
	l.Emitf(0, KindMigrate, "x", 0, 1, "d")
	if l.Len() != 0 || copyOf(l) != nil || l.Filter(KindSpawn) != nil || len(l.Lines()) != 0 {
		t.Error("nil log must discard everything")
	}
	if l.Count(KindSpawn) != 0 {
		t.Error("nil log Count must be 0")
	}
}

func TestCountDoesNotAllocate(t *testing.T) {
	l := NewLog()
	for i := 0; i < 1000; i++ {
		l.Emitf(sim.Time(i), KindMigrate, "m", 0, 1, "")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if l.Count(KindMigrate) != 1000 {
			t.Fatal("Count wrong")
		}
	})
	if allocs != 0 {
		t.Errorf("Count allocated %.1f objects per call, want 0", allocs)
	}
}

// TestEmitfPanicsOutsideItsVerbs: an argument Emitf cannot store as a
// word — a named type, an interface, or a 17th argument — panics with
// the format instead of boxing it. A verb its argument's type does not
// take is TestEmitfArgs's to catch, at the call site.
func TestEmitfPanicsOutsideItsVerbs(t *testing.T) {
	type id int64
	for _, tc := range []struct {
		format string
		args   []any
	}{
		{"id=%d", []any{id(3)}},
		{"err %v", []any{errors.New("x")}},
		{strings.Repeat("%d", 17), []any{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "obs: Emitf format") {
					t.Errorf("Emitf(%q, %v) recovered %v, want a panic naming the format", tc.format, tc.args, r)
				}
			}()
			NewLog().Emitf(0, KindMigrate, "x", 0, 1, tc.format, tc.args...)
		}()
	}
}

func TestEventString(t *testing.T) {
	l := NewLog()
	l.Emitf(1500, KindMigrate, "compute-3", 0, 2, "%dMiB", 10)
	e := copyOf(l)[0]
	if e.Detail() != "10MiB" {
		t.Errorf("Detail() = %q, want 10MiB", e.Detail())
	}
	s := e.String()
	for _, want := range []string{"migrate", "compute-3", "0->2", "10MiB"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	// From/To omitted when both -1.
	e2 := Event{At: 1, Kind: KindSplit, Subject: "s", From: -1, To: -1}
	if strings.Contains(e2.String(), "->") {
		t.Errorf("String() = %q should omit arrow", e2.String())
	}
}

func TestLogString(t *testing.T) {
	l := NewLog()
	l.Emitf(1, KindSpawn, "a", -1, 0, "")
	l.Emitf(2, KindDestroy, "a", 0, -1, "")
	lines := l.Lines()
	if len(lines) != 2 || strings.Contains(strings.Join(lines, ""), "\n") {
		t.Errorf("log dump = %q, want 2 lines", lines)
	}
}

// TestMerge: ordered by time; ties broken by argument position, then
// by within-log emission order; every event reports the argument
// position of its log, nil and empty logs included in the numbering.
func TestMerge(t *testing.T) {
	mk := func(name string, times ...int64) *Log {
		l := NewLog()
		for i, at := range times {
			l.Emit(Event{At: sim.Time(at), Kind: KindSplit,
				Subject: fmt.Sprintf("%s%d", name, i), From: -1, To: -1})
		}
		return l
	}
	for _, tc := range []struct {
		name string
		logs []*Log
		want string // "at/subject@src" per event
	}{
		{"none", nil, ""},
		{"nil and empty", []*Log{nil, NewLog(), nil}, ""},
		{"single", []*Log{mk("a", 3, 3, 7)}, "3/a0@0 3/a1@0 7/a2@0"},
		{"time order", []*Log{mk("a", 5, 30), mk("b", 1, 20)}, "1/b0@1 5/a0@0 20/b1@1 30/a1@0"},
		{"tie goes to the earlier argument", []*Log{mk("a", 10), mk("b", 10), mk("c", 10)}, "10/a0@0 10/b0@1 10/c0@2"},
		{"tie keeps emission order within a log",
			[]*Log{mk("a", 5, 10, 10, 30), mk("b", 1, 10, 20), mk("c", 10)},
			"1/b0@1 5/a0@0 10/a1@0 10/a2@0 10/b1@1 10/c0@2 20/b2@1 30/a3@0"},
		{"skipped logs keep their argument position",
			[]*Log{nil, mk("b", 2), NewLog(), mk("d", 1, 2)}, "1/d0@3 2/b0@1 2/d1@3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := make([]int, len(tc.logs))
			for i, l := range tc.logs {
				before[i] = l.Len()
			}
			m, src := MergeLogs(tc.logs...)
			if len(src) != m.Len() {
				t.Fatalf("%d source indices for %d events", len(src), m.Len())
			}
			var got []string
			for i, e := range copyOf(m) {
				got = append(got, fmt.Sprintf("%d/%s@%d", int64(e.At), e.Subject, src[i]))
			}
			if g := strings.Join(got, " "); g != tc.want {
				t.Errorf("merge\n got %s\nwant %s", g, tc.want)
			}
			m2, src2 := MergeLogs(tc.logs...)
			if !reflect.DeepEqual(copyOf(m), copyOf(m2)) || !reflect.DeepEqual(src, src2) {
				t.Error("two merges of the same logs differ")
			}
			for i, l := range tc.logs {
				if l.Len() != before[i] {
					t.Errorf("MergeLogs modified input %d", i)
				}
			}
		})
	}
}

// Count is on experiment hot paths (per-op assertions); the shard-safe
// merge design must keep it allocation-free.
func TestCountAllocationFree(t *testing.T) {
	l := NewLog()
	for i := 0; i < 1000; i++ {
		k := KindSplit
		if i%3 == 0 {
			k = KindMigrate
		}
		l.Emit(Event{At: sim.Time(i), Kind: k, From: -1, To: -1})
	}
	if avg := testing.AllocsPerRun(100, func() {
		if l.Count(KindMigrate) == 0 {
			t.Fatal("no migrate events")
		}
	}); avg != 0 {
		t.Fatalf("Count allocates %.1f per run, want 0", avg)
	}
}

// TestKindVocabulary reads the package source: events and spans share
// one block of Kind* constants, every value is distinct, and none
// overflows the %-9s column Event.String() gives the kind — trace
// lines are compared byte for byte, so a wider kind would shift them.
func TestKindVocabulary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	seen := map[string]string{} // value -> constant name
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			kinds := 0
			for _, sp := range gd.Specs {
				vs := sp.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Kind") {
						continue
					}
					kinds++
					var lit *ast.BasicLit
					if i < len(vs.Values) {
						lit, _ = vs.Values[i].(*ast.BasicLit)
					}
					if lit == nil || lit.Kind != token.STRING || vs.Type != nil {
						t.Errorf("%s is not an untyped string literal", name.Name)
						continue
					}
					v, _ := strconv.Unquote(lit.Value)
					if other, dup := seen[v]; dup {
						t.Errorf("%s and %s are both %q", other, name.Name, v)
					}
					seen[v] = name.Name
					if len(v) == 0 || len(v) > 9 {
						t.Errorf("%s = %q does not fit Event.String()'s 9-column kind field", name.Name, v)
					}
				}
			}
			if kinds > 0 {
				blocks++
			}
		}
	}
	if blocks != 1 || len(seen) == 0 {
		t.Errorf("found %d Kind* const blocks declaring %d kinds, want one block", blocks, len(seen))
	}
}

// TestEventSize: an event is 96 bytes on 64-bit hosts — its format a
// pointer and a length packed with the tags, spilled arguments one
// pointer into the slab — so a log's first 512-byte chunk holds 5
// events and its 32 KiB chunks 341.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the size is pinned on 64-bit hosts")
	}
	if got := unsafe.Sizeof(Event{}); got != 96 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 96", got)
	}
}

// TestEmitfAllocBudget: Emitf renders nothing and stores its arguments
// as words, so 4,096 events into a fresh log allocate only the log, its
// event chunks and the chunk list's growth — a few dozen, where
// rendering each detail at emit time would add 4,096 strings.
func TestEmitfAllocBudget(t *testing.T) {
	const n = 4096
	var l *Log
	allocs := testing.AllocsPerRun(5, func() {
		l = NewLog()
		for i := 0; i < n; i++ {
			l.Emitf(sim.Time(i), KindMigrate, "mem-1", 0, 1, "bytes=%d latency=%v",
				int64(i)<<20, time.Duration(i)*time.Microsecond)
		}
	})
	if budget := float64(1 + 2*len(l.chunks)); allocs > budget {
		t.Errorf("%d Emitf calls allocated %v objects, want at most %v (%d chunks)", n, allocs, budget, len(l.chunks))
	}
	if l.Len() != n || len(l.chunks) < 10 {
		t.Fatalf("log holds %d events in %d chunks", l.Len(), len(l.chunks))
	}
}

// copyOf copies l's events in emission order, for comparisons.
func copyOf(l *Log) []Event {
	var out []Event
	l.Each(func(e *Event) { out = append(out, *e) })
	return out
}

// chunkedLog emits n events of mixed kinds, ties and argument shapes —
// none, two numbers inline, a string and more than two spilled — into
// one log, and each also into a log of its own: the one-slice
// reference. It returns the log, the reference and each event's
// detail as fmt renders it.
func chunkedLog(n, seed int) (*Log, []Event, []string) {
	kinds := []string{KindMigrate, KindSplit, KindCrash, KindIncident, KindSpawn, KindRepl}
	l := NewLog()
	var ref []Event
	var details []string
	for i := 0; i < n; i++ {
		at := sim.Time((i + seed) / 3 * 1000)
		kind, subject := kinds[(i*7+seed)%len(kinds)], fmt.Sprintf("p%d", i%13)
		from, to := i%5-1, (i+seed)%4-1
		one := NewLog()
		for _, dst := range []*Log{l, one} {
			switch i % 5 {
			case 0:
				dst.Emitf(at, kind, subject, from, to, "")
			case 1:
				dst.Emitf(at, kind, subject, from, to, "bytes=%d latency=%v", int64(i)<<10, time.Duration(i)*time.Microsecond)
			case 2:
				dst.Emitf(at, kind, subject, from, to, "backup %s gen=%d", subject+"/b", uint64(i))
			case 3:
				dst.Emitf(at, kind, subject, from, to, "shard %d at %d, %d shards", i, -i, int32(i%7))
			case 4:
				dst.Emitf(at, kind, subject, from, to, "load %.2f->%.2f (%v)", float64(i)/3, float64(-i)/7, at)
			}
		}
		ref = append(ref, copyOf(one)[0])
		details = append(details, [...]string{"",
			fmt.Sprintf("bytes=%d latency=%v", int64(i)<<10, time.Duration(i)*time.Microsecond),
			fmt.Sprintf("backup %s gen=%d", subject+"/b", uint64(i)),
			fmt.Sprintf("shard %d at %d, %d shards", i, -i, int32(i%7)),
			fmt.Sprintf("load %.2f->%.2f (%v)", float64(i)/3, float64(-i)/7, at)}[i%5])
	}
	return l, ref, details
}

// TestChunkedLogMatchesOneSlice: a log spread over many chunks reads
// exactly as the same events in one slice would, through every reader:
// Events, Filter, Count, Latest, Lines and MergeLogs. Details match
// fmt's rendering of the original arguments byte for byte.
func TestChunkedLogMatchesOneSlice(t *testing.T) {
	l, ref, details := chunkedLog(1500, 0)
	if len(l.chunks) < 8 {
		t.Fatalf("%d events in only %d chunks", l.Len(), len(l.chunks))
	}
	if l.Len() != len(ref) || !reflect.DeepEqual(copyOf(l), ref) {
		t.Fatal("Events differs from the one-slice reference")
	}
	var lines []string
	for i, e := range ref {
		if got := e.Detail(); got != details[i] {
			t.Fatalf("event %d: Detail %q, fmt %q", i, got, details[i])
		}
		lines = append(lines, e.String())
	}
	if !reflect.DeepEqual(l.Lines(), lines) {
		t.Error("Lines differs from the reference's rendering")
	}
	for _, kind := range []string{KindMigrate, KindCrash, KindSpawn, KindMerge} {
		var want []Event
		for _, e := range ref {
			if e.Kind == kind {
				want = append(want, e)
			}
		}
		if got := l.Filter(kind); !reflect.DeepEqual(got, want) {
			t.Errorf("Filter(%s): %d events, reference %d", kind, len(got), len(want))
		}
		if got := l.Count(kind); got != len(want) {
			t.Errorf("Count(%s) = %d, reference %d", kind, got, len(want))
		}
	}
	for _, at := range []sim.Time{-1, 0, 1000, 123_000, 499_000, 1 << 40} {
		for _, kind := range []string{KindCrash, KindRepl, KindMerge} {
			match := func(e *Event) bool { return e.At <= at && e.Kind == kind }
			var want Event
			found := false
			for i := len(ref) - 1; i >= 0 && !found; i-- {
				if match(&ref[i]) {
					want, found = ref[i], true
				}
			}
			got, ok := l.Latest(match)
			if ok != found || !reflect.DeepEqual(got, want) {
				t.Errorf("Latest(at <= %d, %s) = %v %v, reference %v %v", at, kind, got, ok, want, found)
			}
		}
	}

	other, otherRef, _ := chunkedLog(700, 1)
	merged, src := MergeLogs(l, nil, other)
	type tagged struct {
		e   Event
		src int
	}
	var want []tagged
	for _, e := range ref {
		want = append(want, tagged{e, 0})
	}
	for _, e := range otherRef {
		want = append(want, tagged{e, 2})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].e.At < want[j].e.At })
	got := copyOf(merged)
	if len(got) != len(want) || len(src) != len(want) {
		t.Fatalf("merge holds %d events and %d sources, reference %d", len(got), len(src), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i].e) || src[i] != want[i].src {
			t.Fatalf("merged event %d: %v from %d, reference %v from %d", i, got[i], src[i], want[i].e, want[i].src)
		}
	}
}
