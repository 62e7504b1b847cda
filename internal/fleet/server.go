package fleet

import (
	"errors"
	"slices"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// Tally is a shard's serving record, shared by its servers and written
// only in the shard's context.
type Tally struct {
	Served, Timeouts, Errors, Acked uint64

	Hist     *metrics.LogHistogram // arrival-to-completion latency
	Mon      *slo.Monitor          // nil without an SLO plane
	Deadline int64                 // ns; a request served later is a timeout
	Horizon  sim.Time              // the SLO plane observes completions before it

	// OnServe, when set, sees every request as it is served: what only
	// one engine keeps (goodput buckets, per-phase histograms).
	OnServe func(arrived, done sim.Time, missed bool)
}

// errDeadline marks a request span that missed the deadline, so
// tail-based sampling retains its causal tree.
var errDeadline = errors.New("deadline exceeded")

// Server is one server's load.Handler: batched fan-in over its shard's
// stores. A request whose key falls in the write fraction writes object
// load.ScrambleKey(key), any other reads object key % objects, and either
// goes to store key % len(stores). The stores are called one invocation
// at a time — ascending, each store's read before its write — and every
// request of the batch completes at the instant the last call ends. The
// calls are stepped from the Serve loop's stage — a replicated primary's
// write on the server's machine too, a staged method — so the server's
// process never runs for them.
//
// A failed call fails its keys, and a successful read fails each key it
// did not return; an acked write joins the ledger. When the shard traces,
// each batch is one causal tree: the root opens at pickup, the store
// calls hang off it and each request lands as a child spanning arrival
// to completion, so its queue wait shows in the extent a tail sampler
// keys on.
type Server struct {
	sh      *Shard
	objects uint64
	cut     uint64 // a key is a write iff key % 1000 < cut

	// keys holds the batch's keys grouped by call — store i's reads are
	// call 2i, its writes call 2i+1 — in batch order within a call: call c
	// is keys[off[c]:off[c+1]]. op is the call the server is at, inv that
	// call in flight.
	keys []uint64
	off  []int
	op   int
	inv  *proclet.Invocation
	// One read buffer and one write buffer per server: nothing read is
	// kept past the call, and the store copies a write out in the event
	// the call is served. Both, and keys, are sized to a batch when the
	// server is built.
	rbuf, wbuf core.Batch

	batch []load.Request
	root  obs.SpanID
}

// NewServer returns a server of sh over its ledger's stores that
// records into its tally, taking batches of up to batchMax. Reads
// address objects 0 to objects-1; writeFrac of the keys, to a
// thousandth, are writes.
func NewServer(sh *Shard, objects, batchMax int, writeFrac float64) *Server {
	return &Server{sh: sh, objects: uint64(objects), cut: uint64(writeFrac * 1000),
		keys: make([]uint64, 0, batchMax), off: make([]int, 2*len(sh.Ledger.stores)+1),
		rbuf: batchOf(batchMax), wbuf: core.Batch{Vals: make([]core.Value, 0, batchMax), Sizes: make([]int64, 0, batchMax)}}
}

// Root returns the causal tree of the batch in hand, or of the last one.
func (s *Server) Root() obs.SpanID { return s.root }

// Begin opens the batch's tree, groups it by call and starts the first.
func (s *Server) Begin(batch []load.Request) sim.Wait {
	s.batch = batch
	s.root = s.sh.Sys.Obs.Start(obs.KindReq, "batch", 0, 0)
	// A stable counting sort: count call c's keys in off[c+1], sum the
	// counts into starts, place each key in batch order at its call's
	// cursor off[c], which leaves off[c] at call c's end, then shift off
	// one place right so that it holds the starts again.
	clear(s.off)
	for _, r := range batch {
		s.off[s.callOf(r.Key)+1]++
	}
	for c := 1; c < len(s.off); c++ {
		s.off[c] += s.off[c-1]
	}
	s.keys = slices.Grow(s.keys[:0], len(batch))[:len(batch)]
	for _, r := range batch {
		c := s.callOf(r.Key)
		k := r.Key % s.objects
		if c%2 == 1 {
			k = load.ScrambleKey(r.Key)
		}
		s.keys[s.off[c]] = k
		s.off[c]++
	}
	copy(s.off[1:], s.off)
	s.off[0] = 0
	s.op = 0
	return s.Step()
}

// callOf returns the call a request for key joins.
func (s *Server) callOf(key uint64) int {
	c := 2 * int(key%uint64(len(s.sh.Ledger.stores)))
	if key%1000 < s.cut {
		c++
	}
	return c
}

// ids returns call c's keys.
func (s *Server) ids(c int) []uint64 { return s.keys[s.off[c]:s.off[c+1]] }

// Step steps the call in flight; once it ends, it settles it and starts
// the next, and once none is left it completes the batch.
func (s *Server) Step() sim.Wait {
	for {
		if inv := s.inv; inv != nil {
			if w := inv.Step(); w != sim.Resume {
				return w
			}
			s.inv = nil
			_, err := inv.End()
			s.settle(err)
			s.op++
		}
		if !s.call() {
			s.complete()
			return sim.Resume
		}
	}
}

// call starts the first call from op on that has keys, and reports
// whether there was one.
func (s *Server) call() bool {
	for ; s.op < len(s.off)-1; s.op++ {
		ids := s.ids(s.op)
		if len(ids) == 0 {
			continue
		}
		mp := s.sh.Ledger.stores[s.op/2]
		s.sh.Sys.Obs.SetNext(s.root)
		if s.op%2 == 0 {
			s.inv = mp.StartGetBatch(0, ids, &s.rbuf)
			return true
		}
		s.sh.Ledger.WriteBatch(ids, &s.wbuf)
		s.inv = mp.StartPutBatch(0, &s.wbuf)
		return true
	}
	return false
}

// settle counts call op's outcome.
func (s *Server) settle(err error) {
	t, ids := &s.sh.Tally, s.ids(s.op)
	switch {
	case err != nil:
		t.Errors += uint64(len(ids))
	case s.op%2 == 0:
		t.Errors += uint64(len(ids) - len(s.rbuf.IDs))
	default:
		s.sh.Ledger.Ack(s.op/2, ids...)
		t.Acked += uint64(len(ids))
	}
}

// complete records every request of the batch as served now and closes
// the batch's tree.
func (s *Server) complete() {
	t, tr, now := &s.sh.Tally, s.sh.Sys.Obs, s.sh.Sys.K.Now()
	for _, r := range s.batch {
		lat := int64(now - r.At)
		missed := lat > t.Deadline
		t.Hist.Record(lat)
		if t.OnServe != nil {
			t.OnServe(r.At, now, missed)
		}
		t.Served++
		if missed {
			t.Timeouts++
		}
		// The SLO plane covers the horizon: completions during the drain
		// are backlog clearing, not steady-state service.
		if now < t.Horizon {
			t.Mon.Observe(now, lat, missed)
		}
		if tr != nil {
			sp := tr.RecordAt(obs.KindReq, "req", 0, s.root, r.At, now)
			if missed {
				tr.SetErr(sp, errDeadline)
			}
		}
	}
	tr.End(s.root)
}
