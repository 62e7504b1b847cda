package quicksand

// Library gate for scenarios/: every committed scenario file must (a)
// parse, (b) pass its own assertions at its committed seed, and (c)
// print, at 1, 4 and 8 host workers, the report and assertion verdicts
// recorded in testdata/scenarios/<name>.golden, byte for byte. This is
// the in-repo mirror of the CI scenario-matrix job, so a scenario that
// regresses fails `go test ./...` before it ever reaches CI.
//
//	EXPERIMENTS_UPDATE_GOLDENS=1 go test -run TestScenarioLibrary .
//
// rewrites the goldens from the -par 1 runs; the diff shows what moved.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
)

const scenarioDir = "scenarios"

func TestScenarioLibrary(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("scenario library has %d files, want >= 10", len(files))
	}
	update := os.Getenv("EXPERIMENTS_UPDATE_GOLDENS") != ""
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := scenario.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			golden := filepath.Join("testdata", "scenarios", strings.TrimSuffix(filepath.Base(path), ".yaml")+".golden")
			want, err := os.ReadFile(golden)
			if err != nil && !update {
				t.Fatal(err)
			}
			for _, par := range []int{1, 4, 8} {
				out, err := scenario.Run(sp, scenario.Options{Par: par})
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				if !out.Pass {
					for _, a := range out.Asserts {
						if !a.Pass {
							t.Errorf("par=%d: assert FAIL: %s %s %g (got %g)",
								par, a.Metric, a.Op, a.Bound, a.Got)
						}
					}
					t.Fatalf("par=%d: committed-seed assertions failed", par)
				}
				var rep bytes.Buffer
				out.WriteReport(&rep)
				for _, a := range out.Asserts {
					fmt.Fprintf(&rep, "verdict %s %s %s got %s pass %t\n", a.Metric, a.Op,
						strconv.FormatFloat(a.Bound, 'g', -1, 64), strconv.FormatFloat(a.Got, 'g', -1, 64), a.Pass)
				}
				if update && par == 1 {
					if err := os.WriteFile(golden, rep.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					want = rep.Bytes()
				}
				if !bytes.Equal(want, rep.Bytes()) {
					t.Fatalf("par=%d report differs from %s:\n--- want\n%s--- got\n%s", par, golden, want, rep.Bytes())
				}
			}
		})
	}
}

// TestCIMatrixListsEveryScenario: the CI scenario-matrix job names its
// cells by hand, so a scenario file added without a cell would pass
// this library gate and never meet the seed sweep.
func TestCIMatrixListsEveryScenario(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`(?m)^ +scenario:\n((?: +- \S+\n)+)`).FindSubmatch(ci)
	if list == nil {
		t.Fatal("ci.yml has no scenario-matrix `scenario:` list")
	}
	cells := make(map[string]bool)
	for _, name := range regexp.MustCompile(`- (\S+)`).FindAllSubmatch(list[1], -1) {
		cells[string(name[1])] = true
	}
	files, err := filepath.Glob(filepath.Join(scenarioDir, "*.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".yaml")
		if !cells[name] {
			t.Errorf("%s has no cell in ci.yml's scenario-matrix", path)
		}
		delete(cells, name)
	}
	for name := range cells {
		t.Errorf("ci.yml's scenario-matrix lists %q, which is not a file in %s/", name, scenarioDir)
	}
}
