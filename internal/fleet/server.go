package fleet

import (
	"errors"

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

	// keys is the batch's plan, and each call's ids once it starts. Begin
	// writes one word per request — its call in the high half, store i's
	// reads being call 2i and its writes call 2i+1, and its batch index in
	// the low half — and keeps the words sorted, so the calls come
	// ascending and each keeps batch order. call turns the next call's run
	// of words into its ids in place: call op's ids are keys[lo:hi], and
	// the words from hi on are the calls still to make. inv is the call
	// in flight.
	keys   []uint64
	op     int
	lo, hi int
	inv    *proclet.Invocation
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
		keys: make([]uint64, 0, batchMax),
		rbuf: batchOf(batchMax), wbuf: core.Batch{Vals: make([]core.Value, 0, batchMax), Sizes: make([]int64, 0, batchMax)}}
}

// Root returns the causal tree of the batch in hand, or of the last one.
func (s *Server) Root() obs.SpanID { return s.root }

// Begin opens the batch's tree, plans its calls and starts the first.
func (s *Server) Begin(batch []load.Request) sim.Wait {
	s.root = s.sh.Sys.Obs.Start(obs.KindReq, "batch", 0, 0)
	s.plan(batch)
	return s.Step()
}

// plan takes batch in hand and writes its plan into keys. A stable
// insertion sort: a word's batch index is above every word before it,
// so it stops behind the words of its own call. A batch costs its keys
// and the calls it makes, whatever the store count.
func (s *Server) plan(batch []load.Request) {
	s.batch = batch
	s.keys = s.keys[:0]
	for i, r := range batch {
		w := uint64(s.callOf(r.Key))<<32 | uint64(i)
		j := len(s.keys)
		s.keys = append(s.keys, w)
		for ; j > 0 && s.keys[j-1] > w; j-- {
			s.keys[j] = s.keys[j-1]
		}
		s.keys[j] = w
	}
	s.lo, s.hi = 0, 0
}

// callOf returns the call a request for key joins.
func (s *Server) callOf(key uint64) int {
	c := 2 * int(key%uint64(len(s.sh.Ledger.stores)))
	if key%1000 < s.cut {
		c++
	}
	return c
}

// ids returns the keys of call op, the one in hand.
func (s *Server) ids() []uint64 { return s.keys[s.lo:s.hi] }

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
		}
		if !s.call() {
			s.complete()
			return sim.Resume
		}
	}
}

// call starts the plan's next call, and reports whether one was left.
func (s *Server) call() bool {
	if !s.next() {
		return false
	}
	mp := s.sh.Ledger.stores[s.op/2]
	s.sh.Sys.Obs.SetNext(s.root)
	if s.op%2 == 0 {
		s.inv = mp.StartGetBatch(0, s.ids(), &s.rbuf)
		return true
	}
	s.sh.Ledger.WriteBatch(s.ids(), &s.wbuf)
	s.inv = mp.StartPutBatch(0, &s.wbuf)
	return true
}

// next moves op to the plan's next call and writes that call's ids over
// its words — a read's object key % objects, a write's
// load.ScrambleKey(key) — and reports whether a call was left.
func (s *Server) next() bool {
	if s.hi == len(s.keys) {
		return false
	}
	c := s.keys[s.hi] >> 32
	s.op, s.lo = int(c), s.hi
	for ; s.hi < len(s.keys) && s.keys[s.hi]>>32 == c; s.hi++ {
		key := s.batch[uint32(s.keys[s.hi])].Key
		if c%2 == 1 {
			s.keys[s.hi] = load.ScrambleKey(key)
		} else {
			s.keys[s.hi] = key % s.objects
		}
	}
	return true
}

// settle counts call op's outcome.
func (s *Server) settle(err error) {
	t, ids := &s.sh.Tally, s.ids()
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
