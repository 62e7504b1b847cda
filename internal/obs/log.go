package obs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Event is one control-plane occurrence. From/To are machine IDs (as
// ints to avoid layering on the cluster package); -1 means not
// applicable.
type Event struct {
	At      sim.Time
	Kind    string // a Kind* constant
	Subject string // proclet or resource name
	From    int
	To      int
	Detail  string
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v %-9s %-24s", e.At, e.Kind, e.Subject)
	if e.From >= 0 || e.To >= 0 {
		fmt.Fprintf(&b, " %d->%d", e.From, e.To)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// Log is an append-only event log. A nil *Log is valid and discards
// events, so instrumented code never needs nil checks.
type Log struct {
	events []Event
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// Emit appends an event. No-op on a nil log.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	l.events = append(l.events, e)
}

// Emitf is Emit with a detail string formatted as fmt.Sprintf would,
// byte for byte, for the verbs and argument types appendDetail takes.
// The text is built in a stack buffer and args do not escape, so an
// event costs one allocation, its detail string, and none when format
// has no verb. A call outside that set panics with the format.
func (l *Log) Emitf(at sim.Time, kind, subject string, from, to int, format string, args ...any) {
	if l == nil {
		return
	}
	detail := format
	if len(args) > 0 || strings.IndexByte(format, '%') >= 0 {
		var buf [128]byte
		detail = string(appendDetail(buf[:0], format, args))
	}
	l.Emit(Event{At: at, Kind: kind, Subject: subject, From: from, To: to, Detail: detail})
}

// appendDetail appends format rendered with args to b. It takes a
// closed set of verbs — %d over int, int32, int64, uint32 and uint64;
// %s over string, time.Duration and sim.Time; %.Nf over float64; %v over
// all of these; and %% — and calls no fmt function and no method
// through an interface, which is what keeps args on the caller's stack.
// Anything else panics: falling back to fmt would box every call's
// arguments again. TestEmitfArgs holds every call site to the same set.
func appendDetail(b []byte, format string, args []any) []byte {
	rest, next := format, 0
	for {
		i := strings.IndexByte(rest, '%')
		if i < 0 {
			b = append(b, rest...)
			break
		}
		b = append(b, rest[:i]...)
		rest = rest[i+1:]
		prec := -1
		if rest != "" && rest[0] == '.' {
			prec = 0
			for rest = rest[1:]; rest != "" && '0' <= rest[0] && rest[0] <= '9'; rest = rest[1:] {
				prec = 10*prec + int(rest[0]-'0')
			}
		}
		if rest == "" {
			badDetail(format, "ends inside a verb")
		}
		verb := rest[0]
		rest = rest[1:]
		if verb == '%' && prec < 0 {
			b = append(b, '%')
			continue
		}
		if next == len(args) {
			badDetail(format, "has more verbs than arguments")
		}
		var ok bool
		if b, ok = appendArg(b, verb, prec, args[next]); !ok {
			badDetail(format, "has a verb its argument's type does not take")
		}
		next++
	}
	if next != len(args) {
		badDetail(format, "has fewer verbs than arguments")
	}
	return b
}

// appendArg appends one argument under its verb, prec being -1 unless
// the verb carried one. It reports false for a pair it does not take.
func appendArg(b []byte, verb byte, prec int, arg any) ([]byte, bool) {
	integer := prec < 0 && (verb == 'd' || verb == 'v')
	text := prec < 0 && (verb == 's' || verb == 'v')
	switch v := arg.(type) {
	case int:
		return strconv.AppendInt(b, int64(v), 10), integer
	case int32:
		return strconv.AppendInt(b, int64(v), 10), integer
	case int64:
		return strconv.AppendInt(b, v, 10), integer
	case uint32:
		return strconv.AppendUint(b, uint64(v), 10), integer
	case uint64:
		return strconv.AppendUint(b, v, 10), integer
	case float64:
		// strconv writes NaN, +Inf and -Inf, and the sign, as fmt does.
		if prec >= 0 && verb == 'f' {
			return strconv.AppendFloat(b, v, 'f', prec, 64), true
		}
		return strconv.AppendFloat(b, v, 'g', -1, 64), prec < 0 && verb == 'v'
	case string:
		return append(b, v...), text
	case time.Duration:
		return appendDuration(b, v), text
	case sim.Time:
		return appendDuration(b, time.Duration(v)), text
	}
	return b, false
}

// badDetail panics for an Emitf call appendDetail cannot render.
func badDetail(format, what string) {
	panic("obs: Emitf format " + strconv.Quote(format) + " " + what)
}

// appendDuration appends d as time.Duration's String renders it:
// "0s", "1.5µs", "20ms", "1m0.5s", "2h0m0s".
func appendDuration(b []byte, d time.Duration) []byte {
	u := uint64(d)
	if d < 0 {
		b = append(b, '-')
		u = -u
	}
	switch {
	case u == 0:
		return append(b, "0s"...)
	case u < uint64(time.Microsecond):
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	case u < uint64(time.Millisecond):
		return append(appendFrac(b, u, uint64(time.Microsecond)), "µs"...)
	case u < uint64(time.Second):
		return append(appendFrac(b, u, uint64(time.Millisecond)), "ms"...)
	}
	h, m := u/uint64(time.Hour), u/uint64(time.Minute)%60
	if h > 0 {
		b = append(strconv.AppendUint(b, h, 10), 'h')
	}
	if h > 0 || m > 0 {
		b = append(strconv.AppendUint(b, m, 10), 'm')
	}
	return append(appendFrac(b, u%uint64(time.Minute), uint64(time.Second)), 's')
}

// appendFrac appends v/unit as a decimal, trailing zeros dropped, and
// the point too when nothing follows it; unit is a power of ten.
func appendFrac(b []byte, v, unit uint64) []byte {
	b = strconv.AppendUint(b, v/unit, 10)
	frac := v % unit
	if frac == 0 {
		return b
	}
	b = append(b, '.')
	for unit /= 10; frac > 0; unit /= 10 {
		b = append(b, byte('0'+frac/unit))
		frac %= unit
	}
	return b
}

// Events returns all events in emission order (not a copy).
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return l.events
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// Filter returns the events of the given kind, in order.
func (l *Log) Filter(kind string) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many events of the given kind were recorded,
// without materializing the filtered slice.
func (l *Log) Count(kind string) int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.events {
		if l.events[i].Kind == kind {
			n++
		}
	}
	return n
}

// MergeLogs combines several logs into one, ordered by timestamp with
// ties broken by argument position (then by within-log emission order,
// which is preserved); src[i] is the argument position of the log that
// event i came from. This is the deterministic barrier merge for
// partitioned simulations: each shard keeps its own single-threaded Log
// as a per-shard accumulator — Emit and Count stay lock- and
// allocation-free — and the merged view depends only on shard contents
// and argument order, never on the host worker count. Nil logs are
// skipped; the inputs are not modified.
func MergeLogs(logs ...*Log) (merged *Log, src []int) {
	total := 0
	for _, l := range logs {
		total += l.Len()
	}
	type cursor struct {
		events []Event
		arg    int
	}
	curs := make([]cursor, 0, len(logs))
	for i, l := range logs {
		if l.Len() > 0 {
			curs = append(curs, cursor{events: l.events, arg: i})
		}
	}
	merged = &Log{events: make([]Event, 0, total)}
	src = make([]int, 0, total)
	for {
		best := -1
		for i := range curs {
			if len(curs[i].events) == 0 {
				continue
			}
			if best < 0 || curs[i].events[0].At < curs[best].events[0].At {
				best = i
			}
		}
		if best < 0 {
			return merged, src
		}
		merged.events = append(merged.events, curs[best].events[0])
		src = append(src, curs[best].arg)
		curs[best].events = curs[best].events[1:]
	}
}

// Lines renders the log, one String() per event.
func (l *Log) Lines() []string {
	lines := make([]string, l.Len())
	for i, e := range l.Events() {
		lines[i] = e.String()
	}
	return lines
}

// String renders the whole log, one event per line.
func (l *Log) String() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
