package quicksand

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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

// ledgerDocs are the repository's docs at its root; the root's other
// Markdown files are logs and reference material.
var ledgerDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}

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
	for _, name := range ledgerDocs {
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

// roadmapRef matches a cross-reference to a ROADMAP item: "ROADMAP item
// N" or "items N", the latter with any further numbers it lists ("items
// 2 and 3", "items 8, 9 and 12"). itemHead matches the head of an item
// in ROADMAP.md's open list: a line that starts "N. **".
var (
	roadmapRef = regexp.MustCompile(`(?:ROADMAP item|[Ii]tems) (\d+(?:\([a-z]+\))?(?:(?:, | and |, and )\d+)*)`)
	itemNumber = regexp.MustCompile(`\d+`) // a sub-item's letters hold none
	itemHead   = regexp.MustCompile(`(?m)^(\d+)\. \*\*`)
)

// roadmapRefs returns the item numbers text cites.
func roadmapRefs(text string) []int {
	var refs []int
	for _, m := range roadmapRef.FindAllStringSubmatch(text, -1) {
		for _, f := range itemNumber.FindAllString(m[1], -1) {
			n, _ := strconv.Atoi(f)
			refs = append(refs, n)
		}
	}
	return refs
}

// TestRoadmapRefs: every "ROADMAP item N" or "items N" in a Go file, a
// doc (ledgerDocs, or any Markdown file below the root) or the CI
// workflow names an item ROADMAP.md numbers, so a closed or renumbered
// item cannot leave a stale reference behind. The root's logs are
// history and are not read.
func TestRoadmapRefs(t *testing.T) {
	raw, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	items := map[int]bool{}
	for _, m := range itemHead.FindAllStringSubmatch(string(raw), -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = true
	}
	if len(items) < 5 {
		t.Fatalf("ROADMAP.md numbers %d items; the item list was not found", len(items))
	}
	// A reference planted by hand must be read, and fail. (Built at run
	// time, or this file would cite it.)
	planted := roadmapRefs(fmt.Sprintf("see ROADMAP item %d(ii), and items %d, %d and %d", 99, 1, 2, 98))
	if !reflect.DeepEqual(planted, []int{99, 1, 2, 98}) || items[99] || items[98] {
		t.Fatalf("a planted reference reads %v, want [99 1 2 98], two of them unnumbered", planted)
	}
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		switch slash := filepath.ToSlash(path); {
		case strings.HasSuffix(path, ".go"), strings.HasPrefix(slash, ".github/workflows/"),
			slices.Contains(ledgerDocs, path), strings.HasSuffix(path, ".md") && strings.Contains(slash, "/"):
		default:
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, n := range roadmapRefs(string(src)) {
			cited++
			if !items[n] {
				t.Errorf("%s cites ROADMAP item %d, which ROADMAP.md does not number", path, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited < 10 {
		t.Fatalf("%d references found; the pattern no longer matches how the tree cites items", cited)
	}
}
