package slo

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Tail-based trace sampling. A full tracer records every causal tree;
// most trees are boring. Filter keeps the interesting ones — tail
// latency, errors, incident overlap — plus a seeded 1-in-N head
// sample, and drops the rest. Because span IDs are assigned at record
// time (independent of retention) and Put copies spans verbatim, the
// sampled tracer's export is a literal ID-level subset of the full
// export: byte-identical records, just fewer of them. cmd/tracecheck
// gates exactly that property.

// SampleConfig tunes the retention decision. The zero value keeps
// nothing but errors; typical configs set all fields.
type SampleConfig struct {
	Seed      uint64 // run seed folded into the head-sample hash
	HeadEvery uint64 // keep 1 in HeadEvery trees unconditionally (0: no head sample)
	TailNS    int64  // keep trees whose end-to-end extent exceeds this (0: keep all completed)
}

// SampleStats reports what Filter kept and why. A tree retained for
// several reasons counts once, under the first matching reason in
// Tail, Err, Incident, Head order.
type SampleStats struct {
	Trees     int // causal trees in the full tracer
	Kept      int // trees retained
	FullSpans int
	KeptSpans int
	Tail      int // trees kept for tail latency (or never completing)
	Err       int // trees kept for a span error
	Incident  int // trees kept for overlapping an incident
	Head      int // trees kept by the seeded head sample
}

// splitmix64 is the head-sample hash: a fixed avalanche mix, so the
// keep set depends only on (seed, trace ID) — never on worker count,
// retention of other trees, or iteration order.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// interval is a closed time range.
type interval struct{ from, to sim.Time }

// Filter builds the sampled tracer from a full one. incidents mark
// time ranges whose overlapping trees are always retained (an open
// incident extends to the horizon). The result preserves the full
// tracer's base and every kept span verbatim.
func Filter(full *obs.Tracer, incidents []Incident, cfg SampleConfig) (*obs.Tracer, SampleStats) {
	var st SampleStats
	out := obs.NewTracerWithBase(nil, full.Base())
	spans := full.SpansByID()
	st.FullSpans = len(spans)
	if len(spans) == 0 {
		return out, st
	}

	// Horizon: latest timestamp in the tracer, used to clamp open spans
	// and open incidents.
	var horizon sim.Time
	for i := range spans {
		if spans[i].Start > horizon {
			horizon = spans[i].Start
		}
		if spans[i].Done && spans[i].End > horizon {
			horizon = spans[i].End
		}
	}
	var incs []interval
	for i := range incidents {
		to := incidents[i].CloseAt
		if incidents[i].Open {
			to = horizon
		}
		incs = append(incs, interval{from: incidents[i].OpenAt, to: to})
	}

	// Group spans by causal tree. Spans are in ID order and a root's ID
	// is its TraceID (the smallest in the tree), so trees appear as
	// runs keyed by TraceID; order of first appearance is root-ID order.
	byTree := map[obs.SpanID][]int{}
	var treeOrder []obs.SpanID
	for i := range spans {
		tid := spans[i].TraceID
		if _, ok := byTree[tid]; !ok {
			treeOrder = append(treeOrder, tid)
		}
		byTree[tid] = append(byTree[tid], i)
	}
	st.Trees = len(treeOrder)

	for _, tid := range treeOrder {
		idxs := byTree[tid]
		// The tree's extent is its earliest start to its latest end —
		// retroactively recorded children (e.g. a request span whose
		// start is the arrival, before the batch root opened) count, so
		// queue wait is part of the tail decision.
		from, to := spans[idxs[0]].Start, sim.Time(0)
		open := false
		for _, i := range idxs {
			s := &spans[i]
			if s.Start < from {
				from = s.Start
			}
			if !s.Done {
				open = true
			} else if s.End > to {
				to = s.End
			}
		}
		if open {
			to = horizon
		}
		keep := false
		switch {
		case open || int64(to-from) > cfg.TailNS:
			keep = true
			st.Tail++
		case treeHasErr(spans, idxs):
			keep = true
			st.Err++
		case overlapsAny(from, to, incs):
			keep = true
			st.Incident++
		case cfg.HeadEvery > 0 && splitmix64(cfg.Seed^uint64(tid))%cfg.HeadEvery == 0:
			keep = true
			st.Head++
		}
		if !keep {
			continue
		}
		st.Kept++
		for _, i := range idxs {
			out.Put(spans[i])
		}
		st.KeptSpans += len(idxs)
	}
	return out, st
}

func treeHasErr(spans []obs.Span, idxs []int) bool {
	for _, i := range idxs {
		if spans[i].Err != "" {
			return true
		}
	}
	return false
}

func overlapsAny(from, to sim.Time, incs []interval) bool {
	for _, iv := range incs {
		if from <= iv.to && iv.from <= to {
			return true
		}
	}
	return false
}
