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

// locFile is the per-package line ledger TestLineLedger holds the tree
// to.
const locFile = "testdata/loc.txt"

// lineLedger counts the non-test Go lines of every package in the root
// module, one "dir count" row per package and a total. A directory with
// its own go.mod (benchmark/) is another module and is not counted.
func lineLedger() (string, error) {
	var b strings.Builder
	b.WriteString("# Non-test Go lines per package of the root module; benchmark/ is its\n" +
		"# own module and not counted. TestLineLedger requires an exact match:\n" +
		"# a change that moves a count replaces this file with the table the\n" +
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
	want, err := os.ReadFile(locFile)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("%s does not match the tree; if the change is meant, replace it with:\n%s", locFile, got)
	}
}
