package quicksand

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// locFile holds the two ledgers: the per-package line table
// TestLineLedger holds the tree to, then, after a blank line, the doc
// byte ceilings TestDocLedger holds the docs under.
const locFile = "testdata/loc.txt"

// ledgers reads locFile's line table and doc ceilings.
func ledgers(t *testing.T) (lines, docs string) {
	t.Helper()
	raw, err := os.ReadFile(locFile)
	if err != nil {
		t.Fatal(err)
	}
	lines, docs, _ = strings.Cut(string(raw), "\n\n")
	return lines + "\n", docs
}

// lineLedger counts the non-test Go lines of every package in the root
// module, one "dir count" row per package and a total. A directory with
// its own go.mod (benchmark/) is another module and is not counted.
func lineLedger() (string, error) {
	var b strings.Builder
	b.WriteString("# Non-test Go lines per package of the root module; benchmark/ is its\n" +
		"# own module and not counted. TestLineLedger requires an exact match:\n" +
		"# a change that moves a count replaces this table with the one the\n" +
		"# test prints, so the growth or the cut shows in its diff.\n")
	total := 0
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			if skipDir(d.Name()) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		n := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			n += bytes.Count(src, []byte("\n"))
		}
		if n > 0 {
			fmt.Fprintf(&b, "%-28s %6d\n", filepath.ToSlash(dir), n)
			total += n
		}
		return nil
	})
	fmt.Fprintf(&b, "%-28s %6d\n", "total", total)
	return b.String(), err
}

// TestLineLedger: testdata/loc.txt matches the tree, so a package that
// grows or shrinks says so in the change that moves it.
func TestLineLedger(t *testing.T) {
	got, err := lineLedger()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := ledgers(t); want != got {
		t.Errorf("%s does not match the tree; if the change is meant, replace its line table with:\n%s", locFile, got)
	}
}

// TestDocLedger: no doc is larger than its byte ceiling in locFile, so
// a doc that grows says so in the change that grows it, by raising its
// row there.
func TestDocLedger(t *testing.T) {
	_, docs := ledgers(t)
	ceiling := map[string]int64{}
	for _, row := range strings.Split(docs, "\n") {
		if row == "" || strings.HasPrefix(row, "#") {
			continue
		}
		var name string
		var n int64
		if _, err := fmt.Sscan(row, &name, &n); err != nil {
			t.Fatalf("%s: doc row %q: %v", locFile, row, err)
		}
		ceiling[name] = n
	}
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if limit, ok := ceiling[name]; !ok {
			t.Errorf("%s has no ceiling for %s", locFile, name)
		} else if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its ceiling of %d in %s", name, fi.Size(), limit, locFile)
		}
	}
}
