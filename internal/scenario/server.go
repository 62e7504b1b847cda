package scenario

import (
	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// server is one shard server's load.Handler: batched fan-in per store,
// reads through GetBatch and writes through PutBatch. A request is a write
// iff its key falls in the write fraction; writes land under scrambled
// keys and join the golden record on ack. The stores are called one
// invocation at a time — ascending, each store's read before its write —
// and every request of the batch completes at the instant the last call
// ends. The invocations are stepped from the Serve loop's stage, so the
// server's process runs only for a local blocking method (a replicated
// primary's write on machine 0).
type server struct {
	st       *shardState
	objects  uint64
	objBytes int64
	writeCut uint64
	deadline int64 // ns; a request past it is a timeout
	horizon  sim.Time
	bucketNS int64

	readIDs, writeIDs [][]uint64
	// One read buffer and one write buffer per server: nothing read is
	// kept past the call, and the store copies a write out in the event
	// the call is served.
	rbuf, wbuf core.Batch

	batch []load.Request
	// op is the batch's store call the server is at: store op/2, its read
	// when op is even and its write when odd; inv is that call in flight.
	op  int
	inv *proclet.Invocation
}

func newServer(st *shardState, w *Workload, horizon sim.Time, deadline, bucketNS int64) *server {
	return &server{
		st:       st,
		objects:  uint64(w.Objects),
		objBytes: w.ObjectBytes,
		writeCut: uint64(w.WriteFrac * 1000),
		deadline: deadline,
		horizon:  horizon,
		bucketNS: bucketNS,
		readIDs:  make([][]uint64, w.Stores),
		writeIDs: make([][]uint64, w.Stores),
	}
}

// Begin groups the batch by store and starts its first call.
func (sv *server) Begin(batch []load.Request) sim.Wait {
	sv.batch = batch
	for i := range sv.readIDs {
		sv.readIDs[i] = sv.readIDs[i][:0]
		sv.writeIDs[i] = sv.writeIDs[i][:0]
	}
	stores := uint64(len(sv.readIDs))
	for _, r := range batch {
		si := int(r.Key % stores)
		if r.Key%1000 < sv.writeCut {
			sv.writeIDs[si] = append(sv.writeIDs[si], load.ScrambleKey(r.Key))
		} else {
			sv.readIDs[si] = append(sv.readIDs[si], r.Key%sv.objects)
		}
	}
	sv.op = 0
	return sv.Step()
}

// Step steps the call in flight; once it ends, it settles it and starts
// the next, and once none is left it completes the batch.
func (sv *server) Step() sim.Wait {
	for {
		if inv := sv.inv; inv != nil {
			if w := inv.Step(); w != sim.Resume || inv.NeedsProc() {
				return w
			}
			sv.inv = nil
			_, err := inv.End()
			sv.settle(err)
			sv.op++
		}
		if !sv.call() {
			sv.complete()
			return sim.Resume
		}
	}
}

func (sv *server) NeedsProc() bool  { return sv.inv != nil && sv.inv.NeedsProc() }
func (sv *server) Exec(p *sim.Proc) { sv.inv.Exec(p) }

// ids returns the keys of call op.
func (sv *server) ids() []uint64 {
	if sv.op%2 == 1 {
		return sv.writeIDs[sv.op/2]
	}
	return sv.readIDs[sv.op/2]
}

// call starts the first call from op on that has keys, and reports
// whether there was one.
func (sv *server) call() bool {
	st := sv.st
	for ; sv.op < 2*len(st.stores); sv.op++ {
		ids := sv.ids()
		if len(ids) == 0 {
			continue
		}
		mp := st.stores[sv.op/2]
		if sv.op%2 == 0 {
			sv.inv = mp.StartGetBatch(0, ids, &sv.rbuf)
			return true
		}
		sv.wbuf.IDs, sv.wbuf.Vals, sv.wbuf.Sizes = ids, sv.wbuf.Vals[:0], sv.wbuf.Sizes[:0]
		for _, id := range ids {
			sv.wbuf.Vals = append(sv.wbuf.Vals, core.Int(writeVal(id)))
			sv.wbuf.Sizes = append(sv.wbuf.Sizes, sv.objBytes)
		}
		sv.inv = mp.StartPutBatch(0, &sv.wbuf)
		return true
	}
	return false
}

// settle counts call op's outcome: a failed call fails its keys, and an
// acked write joins the golden record.
func (sv *server) settle(err error) {
	st, ids := sv.st, sv.ids()
	switch {
	case err != nil:
		st.errs += uint64(len(ids))
	case sv.op%2 == 1:
		st.ledger.Ack(sv.op/2, ids...)
		st.acked += uint64(len(ids))
	}
}

// complete records every request of the batch as served now.
func (sv *server) complete() {
	st, now := sv.st, sv.st.sys.K.Now()
	for _, r := range sv.batch {
		lat := int64(now - r.At)
		st.hist.Record(lat)
		// The SLO plane covers the scenario horizon: completions during
		// the drain are backlog clearing, not steady-state service.
		if now < sv.horizon {
			st.mon.Observe(now, lat, lat > sv.deadline)
		}
		st.served++
		if lat > sv.deadline {
			st.timeouts++
		} else {
			bi := int(int64(now) / sv.bucketNS)
			if bi >= len(st.good) {
				bi = len(st.good) - 1
			}
			st.good[bi]++
		}
	}
}
