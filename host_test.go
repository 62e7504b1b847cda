package quicksand

import (
	"encoding/json"
	"os"
	"testing"
)

// hostFile is the committed benchmark record: the set of runs `go run -C
// benchmark repro/benchmark --runs 5 --out FILE` wrote for the change
// that last measured host time, with the host it ran on.
const hostFile = "testdata/host.json"

// TestHostRecord: the committed host record holds every workload
// BENCHMARK.json declares, each of its runs correct with no failed
// operation, and the host block that says where the numbers came from.
func TestHostRecord(t *testing.T) {
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	var rec struct {
		Host *struct {
			NumCPU     int    `json:"num_cpu"`
			GOMAXPROCS int    `json:"gomaxprocs"`
			GoVersion  string `json:"go_version"`
		} `json:"host"`
		Runs []struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Trace    int    `json:"trace"`
			Correct  bool   `json:"correct"`
			Failed   int    `json:"failed"`
		} `json:"runs"`
	}
	for file, v := range map[string]any{"BENCHMARK.json": &decl, hostFile: &rec} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
	if h := rec.Host; h == nil || h.NumCPU <= 0 || h.GOMAXPROCS <= 0 || h.GoVersion == "" {
		t.Errorf("%s: host block missing or empty: %+v", hostFile, h)
	}
	runs := map[string]int{}
	for _, r := range rec.Runs {
		runs[r.Workload]++
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %s seed %d trace %d: correct %v, %d failed", hostFile, r.Workload, r.Seed, r.Trace, r.Correct, r.Failed)
		}
	}
	if len(decl.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range decl.Workloads {
		if runs[w.Name] == 0 {
			t.Errorf("%s has no run of workload %s", hostFile, w.Name)
		}
	}
}
