package obs

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// Event is one control-plane occurrence. From/To are machine IDs (as
// ints to avoid layering on the cluster package); -1 means not
// applicable. An Emitf event keeps its format and its arguments as
// tagged words; Detail renders them when read. It is 96 bytes on 64-bit
// hosts: the format is its bytes and a length, packed with the tags.
type Event struct {
	At      sim.Time
	Kind    string // a Kind* constant
	Subject string // proclet or resource name
	From    int
	To      int

	format unsafe.Pointer // the format's bytes
	meta   uint64         // the format's length, then from bit 32 the tags of the arguments in words
	words  [2]uint64      // the arguments, if at most two and none a string
	spill  *spillArg      // else their tags, then each of them, in the log's slab
}

// argTag says how an argument is stored and as which type it renders.
type argTag uint8

const (
	tagInt      argTag = iota + 1 // int, int32, int64
	tagUint                       // uint32, uint64
	tagFloat                      // float64, as math.Float64bits
	tagDuration                   // time.Duration, sim.Time
	tagString                     // string, in spillArg.s
)

// spillArg is one argument of an event whose arguments are spilled, or
// the tags that lead them. Argument i's argTag is in bits 4i..4i+3 of
// tags, 0 past the last.
type spillArg struct {
	word uint64
	s    string
}

// Detail renders the event's detail, fmt.Sprintf of its format and
// arguments; "" when the event has none.
func (e Event) Detail() string { return string(e.appendDetail(nil)) }

// String renders the event as fmt's "%12v %-9s %-24s" of At, Kind and
// Subject, then " %d->%d" of From and To unless both are negative, then
// " (%s)" of a non-empty Detail.
func (e Event) String() string { return string(e.AppendLine(nil)) }

// AppendLine appends String's rendering to b.
func (e *Event) AppendLine(b []byte) []byte {
	b = fmt.Appendf(b, "%12v %-9s %-24s", e.At, e.Kind, e.Subject)
	if e.From >= 0 || e.To >= 0 {
		b = fmt.Appendf(b, " %d->%d", e.From, e.To)
	}
	n := len(b)
	if b = e.appendDetail(append(b, " ("...)); len(b) == n+2 {
		return b[:n]
	}
	return append(b, ')')
}

// Log is an append-only event log. A nil *Log is valid and discards
// events, so instrumented code never needs nil checks. Events live in
// chunks that are never copied, doubling from 5 events to 341 (on
// 64-bit hosts); spilled arguments in slab chunks, 8 doubling to 128.
type Log struct {
	chunks [][]Event
	n      int
	slab   []spillArg // the current slab chunk
}

const firstSlab, maxSlab = 8, 128

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// Emit appends an event. No-op on a nil log.
func (l *Log) Emit(e Event) {
	if l == nil {
		return
	}
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		// 512 bytes doubling to 32 KiB: each a malloc size class.
		size := (512 << min(len(l.chunks), 6)) / int(unsafe.Sizeof(e))
		l.chunks = append(l.chunks, make([]Event, 0, size))
		last++
	}
	l.chunks[last] = append(l.chunks[last], e)
	l.n++
}

// Emitf is Emit with a detail that renders as fmt.Sprintf(format,
// args...) when read. Nothing is rendered here: the event keeps format,
// a constant, and each argument as a tagged word, two numbers in the
// event itself and more, or a string, in the log's slab. An argument of
// a type toArg does not store, or more than 16 of them, panics with the
// format; TestEmitfArgs holds every call site's verbs to its arguments'
// types. Arguments do not escape, so an event costs only its share of a
// chunk.
func (l *Log) Emitf(at sim.Time, kind, subject string, from, to int, format string, args ...any) {
	if l == nil {
		return
	}
	if len(args) > 16 || uint64(len(format)) > math.MaxUint32 {
		badDetail(format, "has more than 16 arguments, or is over 4 GiB")
	}
	e := Event{At: at, Kind: kind, Subject: subject, From: from, To: to,
		format: unsafe.Pointer(unsafe.StringData(format)), meta: uint64(len(format))}
	spill := len(args) > len(e.words)
	for _, a := range args {
		if _, ok := a.(string); ok {
			spill = true
		}
	}
	var spilled []spillArg
	if spill {
		if cap(l.slab)-len(l.slab) <= len(args) {
			l.slab = make([]spillArg, 0, max(len(args)+1, firstSlab, min(2*cap(l.slab), maxSlab)))
		}
		n := len(l.slab)
		l.slab = l.slab[:n+1+len(args)]
		spilled = l.slab[n:]
		e.spill = &spilled[0]
	}
	var tags uint64
	for i, a := range args {
		tag, word, s := toArg(a)
		if tag == 0 {
			badDetail(format, "has an argument of a type it does not take")
		}
		tags |= uint64(tag) << (4 * i)
		if spill {
			spilled[1+i] = spillArg{word, s}
		} else {
			e.words[i] = word
		}
	}
	if spill {
		spilled[0].word = tags
	} else {
		e.meta |= tags << 32
	}
	l.Emit(e)
}

// toArg tags and stores one argument; tag 0 is a type Emitf does not
// store.
func toArg(a any) (tag argTag, word uint64, s string) {
	switch v := a.(type) {
	case int:
		return tagInt, uint64(v), ""
	case int32:
		return tagInt, uint64(v), ""
	case int64:
		return tagInt, uint64(v), ""
	case uint32:
		return tagUint, uint64(v), ""
	case uint64:
		return tagUint, v, ""
	case float64:
		return tagFloat, math.Float64bits(v), ""
	case string:
		return tagString, 0, v
	case time.Duration:
		return tagDuration, uint64(v), ""
	case sim.Time:
		return tagDuration, uint64(v), ""
	}
	return 0, 0, ""
}

// appendDetail appends fmt's rendering of the event's format with its
// arguments, each rebuilt from its word as the widest type of its tag.
// Under the verbs TestEmitfArgs admits an int32 prints as the int64 it
// is stored as, and a sim.Time as a time.Duration, so the detail is the
// one the original arguments would give.
func (e *Event) appendDetail(b []byte) []byte {
	format, tags := unsafe.String((*byte)(e.format), uint32(e.meta)), e.meta>>32
	if e.spill != nil {
		tags = e.spill.word
	}
	var buf [16]any
	args := buf[:0]
	for i := 0; tags>>(4*i)&15 != 0; i++ { // 0 once the shift passes 63
		var word uint64
		var s string
		if e.spill != nil {
			a := unsafe.Slice(e.spill, i+2)[i+1]
			word, s = a.word, a.s
		} else {
			word = e.words[i]
		}
		switch argTag(tags >> (4 * i) & 15) {
		case tagInt:
			args = append(args, int64(word))
		case tagUint:
			args = append(args, word)
		case tagFloat:
			args = append(args, math.Float64frombits(word))
		case tagDuration:
			args = append(args, time.Duration(word))
		case tagString:
			args = append(args, s)
		}
	}
	return fmt.Appendf(b, format, args...)
}

// badDetail panics for an Emitf call whose arguments it cannot store.
func badDetail(format, what string) {
	panic("obs: Emitf format " + strconv.Quote(format) + " " + what)
}

// events returns the log's chunks; nil for a nil log.
func (l *Log) events() [][]Event {
	if l == nil {
		return nil
	}
	return l.chunks
}

// Each calls f with each event in emission order, in place: nothing is
// copied.
func (l *Log) Each(f func(e *Event)) {
	for _, c := range l.events() {
		for i := range c {
			f(&c[i])
		}
	}
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return l.n
}

// Filter returns the events of the given kind, in order.
func (l *Log) Filter(kind string) []Event {
	var out []Event
	l.Each(func(e *Event) {
		if e.Kind == kind {
			out = append(out, *e)
		}
	})
	return out
}

// Count returns how many events of the given kind were recorded,
// without materializing the filtered slice.
func (l *Log) Count(kind string) int {
	n := 0
	l.Each(func(e *Event) {
		if e.Kind == kind {
			n++
		}
	})
	return n
}

// Latest returns the last event match reports true for, walking the
// log backward in place.
func (l *Log) Latest(match func(*Event) bool) (Event, bool) {
	chunks := l.events()
	for ci := len(chunks) - 1; ci >= 0; ci-- {
		for i := len(chunks[ci]) - 1; i >= 0; i-- {
			if match(&chunks[ci][i]) {
				return chunks[ci][i], true
			}
		}
	}
	return Event{}, false
}

// MergeLogs combines several logs into one, ordered by timestamp with
// ties broken by argument position (then by within-log emission order,
// which is preserved); src[i] is the argument position of the log that
// event i came from. This is the deterministic barrier merge for
// partitioned simulations: each shard keeps its own single-threaded Log
// as a per-shard accumulator — Emit and Count stay lock- and
// allocation-free — and the merged view depends only on shard contents
// and argument order, never on the host worker count. Nil logs are
// skipped; the inputs are not modified. The merged log is one chunk
// and shares the inputs' slabs.
func MergeLogs(logs ...*Log) (merged *Log, src []int) { return MergeTails(math.MaxInt, logs...) }

// MergeTails is MergeLogs over the last n events of each log (all of a
// shorter one). Each log is in time order, so this is the merge of the
// whole logs with every event before a tail left out, at the cost of the
// tails alone.
func MergeTails(n int, logs ...*Log) (merged *Log, src []int) {
	total := 0
	for _, l := range logs {
		total += min(l.Len(), n)
	}
	type cursor struct {
		head []Event   // the rest of the current chunk
		more [][]Event // the chunks after it
		arg  int
	}
	curs := make([]cursor, 0, len(logs))
	for i, l := range logs {
		take := min(l.Len(), n)
		if take == 0 {
			continue
		}
		chunks, skip := l.chunks, l.Len()-take
		for skip >= len(chunks[0]) {
			skip -= len(chunks[0])
			chunks = chunks[1:]
		}
		curs = append(curs, cursor{head: chunks[0][skip:], more: chunks[1:], arg: i})
	}
	out := make([]Event, 0, total)
	src = make([]int, 0, total)
	for {
		best := -1
		for i := range curs {
			if len(curs[i].head) > 0 && (best < 0 || curs[i].head[0].At < curs[best].head[0].At) {
				best = i
			}
		}
		if best < 0 {
			return &Log{chunks: [][]Event{out}, n: total}, src
		}
		c := &curs[best]
		out = append(out, c.head[0])
		src = append(src, c.arg)
		if c.head = c.head[1:]; len(c.head) == 0 && len(c.more) > 0 {
			c.head, c.more = c.more[0], c.more[1:]
		}
	}
}

// Lines renders the log, one String() per event.
func (l *Log) Lines() []string {
	lines := make([]string, 0, l.Len())
	var b []byte
	l.Each(func(e *Event) {
		b = e.AppendLine(b[:0])
		lines = append(lines, string(b))
	})
	return lines
}
