package obs

import (
	"fmt"
	"strings"

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

// Emitf is shorthand for Emit with a formatted detail string.
func (l *Log) Emitf(at sim.Time, kind, subject string, from, to int, format string, args ...any) {
	if l == nil {
		return
	}
	l.Emit(Event{At: at, Kind: kind, Subject: subject, From: from, To: to,
		Detail: fmt.Sprintf(format, args...)})
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
