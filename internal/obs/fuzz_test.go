package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadJSONL is the input-boundary contract of the record stream
// `qsctl analyze` reads: any bytes either parse or fail with an error
// that names a line, and whatever ReadJSONL accepts, Analyze digests
// and the report prints, never with a panic or a hang. The seeds are
// one small traced run plus the edge records in testdata/fuzz.
func FuzzReadJSONL(f *testing.F) {
	tr, tl := buildRun(f)
	var run bytes.Buffer
	if err := WriteJSONL(&run, tr, tl); err != nil {
		f.Fatal(err)
	}
	f.Add(run.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "line ") {
				t.Errorf("error names no line: %v", err)
			}
			return
		}
		Analyze(recs).Print(io.Discard, 10)
	})
}
