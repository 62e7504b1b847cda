package experiments

// The fleet-assembly refactor (internal/fleet, load.Queue, sweepWorkers)
// promised to move no simulated value. testdata/ext_seed<N>.golden is
// the stdout of
//
//	quicksand-bench -scale test -seed <N> ext-chaos ext-failover ext-scale ext-serve
//
// recorded at 677053b, the commit before it; the determinism tests
// compare a run with itself, this one compares it with that commit.
// EXPERIMENTS_UPDATE_GOLDENS=1 go test -run ExtGoldens rewrites the
// files, which only makes sense when a change means to move the output.

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

func TestExtGoldens(t *testing.T) {
	defer SetBaseSeed(0)
	for seed := int64(0); seed <= 2; seed++ {
		SetBaseSeed(seed)
		var got bytes.Buffer
		for i, id := range []string{"ext-chaos", "ext-failover", "ext-scale", "ext-serve"} {
			res, err := Run(id, TestScale)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, id, err)
			}
			if i > 0 {
				fmt.Fprintln(&got)
			}
			res.Print(&got)
		}
		path := fmt.Sprintf("testdata/ext_seed%d.golden", seed)
		if os.Getenv("EXPERIMENTS_UPDATE_GOLDENS") != "" {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("seed %d: output differs from %s\n--- got\n%s--- want\n%s", seed, path, got.Bytes(), want)
		}
	}
}
