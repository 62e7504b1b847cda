package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputMatchesGolden: the example's output is a fact of the
// simulation, so it must match testdata/quickstart.golden byte for byte.
// EXPERIMENTS_UPDATE_GOLDENS=1 rewrites the file.
func TestOutputMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	path := filepath.Join("testdata", "quickstart.golden")
	if os.Getenv("EXPERIMENTS_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- want\n%s--- got\n%s", path, want, got.Bytes())
	}
}
