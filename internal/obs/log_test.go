package obs

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

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
	if len(migs) != 1 || migs[0].Detail != "bytes=1024" {
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
	if l.Len() != 0 || l.Events() != nil || l.Filter(KindSpawn) != nil || l.String() != "" || len(l.Lines()) != 0 {
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

// TestEmitfPanicsOutsideItsVerbs: a type or verb Emitf's formatter
// does not take panics with the format instead of falling back to fmt,
// which would box every call's arguments again.
func TestEmitfPanicsOutsideItsVerbs(t *testing.T) {
	type id int64
	for _, tc := range []struct {
		format string
		args   []any
	}{
		{"id=%d", []any{id(3)}},
		{"err %v", []any{errors.New("x")}},
		{"%x", []any{7}},
		{"%s", []any{7}},
		{"%d", []any{1.5}},
		{"%.2f", []any{int64(2)}},
		{"%d %d", []any{1}},
		{"%d", []any{1, 2}},
		{"trailing %", nil},
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
	e := Event{At: 1500, Kind: KindMigrate, Subject: "compute-3", From: 0, To: 2, Detail: "10MiB"}
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
	out := l.String()
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Errorf("log dump = %q, want 2 lines", out)
	}
	if got := strings.Join(l.Lines(), "\n") + "\n"; got != out {
		t.Errorf("Lines() renders %q, String() %q", got, out)
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
			for i, e := range m.Events() {
				got = append(got, fmt.Sprintf("%d/%s@%d", int64(e.At), e.Subject, src[i]))
			}
			if g := strings.Join(got, " "); g != tc.want {
				t.Errorf("merge\n got %s\nwant %s", g, tc.want)
			}
			m2, src2 := MergeLogs(tc.logs...)
			if !reflect.DeepEqual(m.Events(), m2.Events()) || !reflect.DeepEqual(src, src2) {
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
