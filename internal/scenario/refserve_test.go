package scenario

import (
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
)

// The serving loop as it was written before server: load.Queue.Serve
// handing each batch to a handler that runs on the server's own process,
// every store call a blocking GetBatch or PutBatch. TestServerMatchesReferenceLoop
// holds Queue.Serve over server to it, event for event.

// refQueue is load.Queue with the Serve it had then.
type refQueue struct {
	reqs  []load.Request
	qhead int
}

func (q *refQueue) Push(r load.Request) { q.reqs = append(q.reqs, r) }

func (q *refQueue) Serve(p *sim.Proc, horizon sim.Time, poll time.Duration, max int, handle func(batch []load.Request)) {
	batch := make([]load.Request, 0, max)
	idle := func() sim.Wait {
		if q.qhead == len(q.reqs) && p.Now() < horizon {
			return sim.After(poll)
		}
		return sim.Resume
	}
	for {
		if q.qhead == len(q.reqs) {
			if p.Now() >= horizon {
				return
			}
			p.Await(sim.After(poll), idle)
			continue
		}
		n := min(len(q.reqs)-q.qhead, max)
		batch = append(batch[:0], q.reqs[q.qhead:q.qhead+n]...)
		q.qhead += n
		if q.qhead == len(q.reqs) {
			q.reqs, q.qhead = q.reqs[:0], 0
		}
		handle(batch)
	}
}

// refServe is a scenario server's process body as it was then.
func refServe(p *sim.Proc, q *refQueue, st *shardState, w *Workload, horizon sim.Time, deadline, bucketNS int64) {
	writeCut := uint64(w.WriteFrac * 1000)
	readIDs := make([][]uint64, w.Stores)
	writeIDs := make([][]uint64, w.Stores)
	var rbuf, wbuf core.Batch
	q.Serve(p, horizon, serverPoll, w.BatchMax, func(batch []load.Request) {
		for i := range readIDs {
			readIDs[i] = readIDs[i][:0]
			writeIDs[i] = writeIDs[i][:0]
		}
		for _, r := range batch {
			si := int(r.Key % uint64(w.Stores))
			if r.Key%1000 < writeCut {
				writeIDs[si] = append(writeIDs[si], load.ScrambleKey(r.Key))
			} else {
				readIDs[si] = append(readIDs[si], r.Key%uint64(w.Objects))
			}
		}
		for si := range st.stores {
			if ids := readIDs[si]; len(ids) > 0 {
				if err := st.stores[si].GetBatch(p, 0, ids, &rbuf); err != nil {
					st.errs += uint64(len(ids))
				}
			}
			if ids := writeIDs[si]; len(ids) > 0 {
				wbuf.IDs, wbuf.Vals, wbuf.Sizes = ids, wbuf.Vals[:0], wbuf.Sizes[:0]
				for _, id := range ids {
					wbuf.Vals = append(wbuf.Vals, core.Int(writeVal(id)))
					wbuf.Sizes = append(wbuf.Sizes, w.ObjectBytes)
				}
				if err := st.stores[si].PutBatch(p, 0, &wbuf); err != nil {
					st.errs += uint64(len(ids))
				} else {
					st.ledger.Ack(si, ids...)
					st.acked += uint64(len(ids))
				}
			}
		}
		now := p.Now()
		for _, r := range batch {
			lat := int64(now - r.At)
			st.hist.Record(lat)
			if now < horizon {
				st.mon.Observe(now, lat, lat > deadline)
			}
			st.served++
			if lat > deadline {
				st.timeouts++
			} else {
				bi := int(int64(now) / bucketNS)
				if bi >= len(st.good) {
					bi = len(st.good) - 1
				}
				st.good[bi]++
			}
		}
	})
}
