package obs

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// FuzzReadChromeTrace is the input-boundary contract of the trace file
// `qsctl analyze` and cmd/tracecheck read: any bytes either parse or
// fail with an error that names the event, the byte or the envelope
// field that is wrong, and whatever ReadChromeTrace accepts, Analyze
// digests and the report prints, never with a panic or a hang. The
// seeds are one small traced run plus the edge files in testdata/fuzz.
func FuzzReadChromeTrace(f *testing.F) {
	tr, tl := buildRun(f)
	var run bytes.Buffer
	if err := WriteChromeTrace(&run, tr, tl); err != nil {
		f.Fatal(err)
	}
	f.Add(run.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			if msg := err.Error(); !strings.Contains(msg, "event ") && !strings.Contains(msg, "byte ") &&
				!strings.Contains(msg, "displayTimeUnit") {
				t.Errorf("error names no event or byte: %v", err)
			}
			return
		}
		Analyze(recs).Print(io.Discard, 10)
	})
}
