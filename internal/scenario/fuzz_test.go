package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse is the input-boundary contract of the scenario format: any
// bytes either parse or fail with an error that says where — never a
// panic — and a Spec Parse accepts is one validate accepts again.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		f.Fatalf("no scenario library to seed from: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, tc := range goldenCases {
		f.Add(tc.src)
	}
	f.Add(minimal)
	f.Add(miniGPU)
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := Parse(src)
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "line ") && !strings.HasPrefix(msg, "scenario ") && msg != "empty scenario file" {
				t.Errorf("error names neither a line nor the scenario: %s", msg)
			}
			return
		}
		if err := sp.validate(); err != nil {
			t.Errorf("Parse accepted a Spec validate rejects: %v", err)
		}
	})
}
