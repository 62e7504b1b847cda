package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
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

// FuzzEmitfDetail holds the round trip through Emitf's stored words to
// fmt.Sprintf of the original arguments, byte for byte: each argument
// is stored as the widest type of its tag and rebuilt as that type on
// read, which must print as the original does. Each input builds one
// format from the verbs TestEmitfArgs admits, with an argument of every
// stored type, and shape picks each argument's verb (%d or %v, %s or
// %v, %v or a %.Nf) and where a literal %% goes. The seeds cover the
// extremes of every type: the smallest and largest integers, NaN, ±Inf,
// denormal and huge floats, strings holding verbs, and durations from a
// nanosecond to hours.
func FuzzEmitfDetail(f *testing.F) {
	f.Add(int64(0), uint64(0), 0.0, "", int64(0), uint16(0))
	f.Add(int64(-1), uint64(1), math.Copysign(0, -1), "%", int64(1), uint16(0xffff))
	f.Add(int64(math.MinInt64), uint64(math.MaxUint64), math.NaN(), "100%d done", int64(math.MinInt64), uint16(0x5555))
	f.Add(int64(math.MaxInt64), uint64(math.MaxUint32), math.Inf(1), "%!s(MISSING)", int64(math.MaxInt64), uint16(0xaaaa))
	f.Add(int64(math.MinInt32), uint64(1)<<32, math.Inf(-1), "µs %% %v", int64(999), uint16(0x1234))
	f.Add(int64(math.MaxInt32)+1, uint64(12345), 5e-324, "m0", int64(999_999), uint16(0x4321))
	f.Add(int64(7), uint64(0), math.MaxFloat64, "shard", int64(1_500_000), uint16(0x0f0f))
	f.Add(int64(-42), uint64(9), 0.005, "a\x00b", int64(-999_999_999), uint16(0xf0f0))
	f.Add(int64(1024), uint64(3), 2.675, "", int64(59_999_999_999), uint16(0x3c3c))
	f.Add(int64(1e6), uint64(4), -1e-7, "", int64(3_600_000_000_000), uint16(0xc3c3))
	f.Add(int64(-1e9), uint64(5), 1e21, "", int64(-7_384_512_345_678), uint16(0x9999))
	f.Add(int64(3), uint64(6), 123456789.0, "", int64(2*time.Hour+3*time.Millisecond), uint16(0x6666))
	f.Fuzz(func(t *testing.T, i int64, u uint64, x float64, s string, d int64, shape uint16) {
		pick := func(choices ...string) string {
			c := choices[int(shape)%len(choices)]
			shape = bits.RotateLeft16(shape, -3)
			return c
		}
		ints := []any{int(i), int32(i), i, uint32(u), u}
		args := append(ints, x, s, time.Duration(d), sim.Time(d), x)
		var format strings.Builder
		for range ints {
			format.WriteString(pick("%d", "%v") + " ")
		}
		format.WriteString(pick("%.2f", "%.3f", "%v", "%.0f", "%.9f") + pick(" ", "%%", "=", ""))
		format.WriteString(pick("%s", "%v") + pick(" ", "%%", "/"))
		format.WriteString(pick("%v", "%s") + " after " + pick("%s", "%v"))
		format.WriteString(pick(" x%.2f", " load %.3f", " %v", " %.1f") + pick("", "%%", " (at ms)"))
		want := fmt.Sprintf(format.String(), args...)
		l := NewLog()
		l.Emitf(1, KindMigrate, "p", 0, 1, format.String(), args...)
		if got := copyOf(l)[0].Detail(); got != want {
			t.Fatalf("Emitf(%q)\n got %q\nwant %q", format.String(), got, want)
		}
	})
}
