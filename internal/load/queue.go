package load

import (
	"time"

	"repro/internal/sim"
)

// Queue is one shard's arrival queue: an Injector handler pushes
// requests in arrival order and a pool of server processes drains it in
// batches. It is written and read only in its shard's context. The zero
// value is an empty queue.
type Queue struct {
	reqs  []Request
	qhead int // reqs[:qhead] have been handed to a server
}

// Push appends an arrival; pass it to NewInjector as the handler.
func (q *Queue) Push(r Request) { q.reqs = append(q.reqs, r) }

// Serve runs one server on process p: it hands handle runs of at most
// max queued requests, oldest first, until the queue is empty and the
// horizon has passed — so every arrival delivered before the horizon is
// served, however late. The batch belongs to the server and is reused by
// the next call. Several servers may share one queue.
func (q *Queue) Serve(p *sim.Proc, horizon sim.Time, poll time.Duration, max int, handle func(batch []Request)) {
	batch := make([]Request, 0, max)
	// An empty queue is polled in kernel context: the server's
	// goroutine runs only when there is work or the horizon
	// has passed.
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
			// Drained: reuse the queue's storage instead of growing it
			// by every request the run will ever see.
			q.reqs, q.qhead = q.reqs[:0], 0
		}
		handle(batch)
	}
}
