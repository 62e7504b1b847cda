package quicksand

// Library gate for scenarios/: every committed scenario file must (a)
// parse, (b) pass its own assertions at its committed seed, and (c)
// print a byte-identical report at 1, 4, and 8 host workers. This is
// the in-repo mirror of the CI scenario-matrix job, so a scenario that
// regresses fails `go test ./...` before it ever reaches CI.

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
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
			var first bytes.Buffer
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
				if par == 1 {
					first = rep
					continue
				}
				if !bytes.Equal(first.Bytes(), rep.Bytes()) {
					t.Fatalf("par=%d report differs from par=1; worker count leaked into the run", par)
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
