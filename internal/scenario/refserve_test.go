package scenario

import (
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/sim"
)

// The serving loop as it was written before fleet.Server: load.Queue.Serve
// handing each batch to a handler that runs on the server's own process,
// every store call a blocking GetBatch or PutBatch. TestServerMatchesReferenceLoop
// holds Queue.Serve over fleet.Server to it, event for event.

// refQueue is load.Queue with the Serve it had then.
type refQueue struct {
	reqs  []load.Request
	qhead int
}

func (q *refQueue) Push(r load.Request) { q.reqs = append(q.reqs, r) }

func (q *refQueue) Serve(p *sim.Proc, horizon sim.Time, poll time.Duration, max int, handle func(batch []load.Request), switches *uint64) {
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
			*switches++
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

// refServe is a scenario server's process body as it was then. It adds one
// to switches each time p is switched back in after a park.
func refServe(p *sim.Proc, q *refQueue, st *shardState, w *Workload, horizon sim.Time, deadline int64, switches *uint64) {
	k := st.Sys.K
	// parked counts the switch back into p that a call which parked it
	// ends with: it ran past the event it started in.
	parked := func(call func() error) error {
		n := k.EventsProcessed()
		err := call()
		if k.EventsProcessed() != n {
			*switches++
		}
		return err
	}
	writeCut := uint64(w.WriteFrac * 1000)
	readIDs := make([][]uint64, w.Stores)
	writeIDs := make([][]uint64, w.Stores)
	var rbuf, wbuf core.Batch
	q.Serve(p, horizon, tapePoll, w.BatchMax, func(batch []load.Request) {
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
		for si := range st.Stores {
			if ids := readIDs[si]; len(ids) > 0 {
				if err := parked(func() error { return st.Stores[si].GetBatch(p, 0, ids, &rbuf) }); err != nil {
					st.Errors += uint64(len(ids))
				} else {
					st.Errors += uint64(len(ids) - len(rbuf.IDs))
				}
			}
			if ids := writeIDs[si]; len(ids) > 0 {
				st.Ledger.WriteBatch(ids, &wbuf)
				if err := parked(func() error { return st.Stores[si].PutBatch(p, 0, &wbuf) }); err != nil {
					st.Errors += uint64(len(ids))
				} else {
					st.Ledger.Ack(si, ids...)
					st.Acked += uint64(len(ids))
				}
			}
		}
		now := p.Now()
		for _, r := range batch {
			lat := int64(now - r.At)
			st.Hist.Record(lat)
			if now < horizon {
				st.Mon.Observe(now, lat, lat > deadline)
			}
			st.Served++
			if lat > deadline {
				st.Timeouts++
			} else {
				st.good.Add(now, 1)
			}
		}
	}, switches)
}
