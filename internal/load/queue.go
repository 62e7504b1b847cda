package load

import (
	"fmt"
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

// Handler serves the batches a server takes off its Queue, as the stages
// of the server's one Await (sim.Proc.Await). Begin takes a batch and Step
// carries it on; each runs in kernel context, in the event that ended the
// wait before it, and returns the next wait — or Resume, once the batch is
// served or once the handler has reached something only a process can do
// (NeedsProc), which Exec then does on the server's process before Step
// carries on. Neither Begin nor Step may block. The batch belongs to the
// server, which refills it for the next Begin.
type Handler interface {
	Begin(batch []Request) sim.Wait
	Step() sim.Wait
	NeedsProc() bool
	Exec(p *sim.Proc)
}

// Serve runs one server on process p: it hands h runs of at most max
// queued requests, oldest first, until the queue is empty and the horizon
// has passed — so every arrival delivered before the horizon is served,
// however late. Polling an empty queue, taking a batch and serving it are
// all stages of one Await: p is switched in at its start, at its exit and
// for h's Exec, and nowhere else. Several servers may share one queue.
func (q *Queue) Serve(p *sim.Proc, horizon sim.Time, poll time.Duration, max int, h Handler) {
	if max < 1 {
		panic(fmt.Sprintf("load: Queue.Serve with max %d: a server takes at least one request at a time", max))
	}
	s := &server{q: q, p: p, h: h, horizon: horizon, poll: poll, max: max, batch: make([]Request, 0, max)}
	stage := s.next
	for {
		p.Await(s.next(), stage)
		if !s.busy {
			return
		}
		h.Exec(p)
	}
}

// server is one Serve's state between two waits.
type server struct {
	q       *Queue
	p       *sim.Proc
	h       Handler
	horizon sim.Time
	poll    time.Duration
	max     int
	batch   []Request
	busy    bool // h has a batch in hand
}

// next advances the server as far as it goes without waiting: it carries
// the batch in hand on, or takes the next one, or polls an empty queue.
// It returns Resume when the server is done (busy false) or h needs the
// process (busy true).
func (s *server) next() sim.Wait {
	q := s.q
	for {
		var w sim.Wait
		switch {
		case s.busy:
			w = s.h.Step()
		case q.qhead == len(q.reqs):
			if s.p.Now() >= s.horizon {
				return sim.Resume
			}
			return sim.After(s.poll)
		default:
			n := min(len(q.reqs)-q.qhead, s.max)
			s.batch = append(s.batch[:0], q.reqs[q.qhead:q.qhead+n]...)
			q.qhead += n
			if q.qhead == len(q.reqs) {
				// Drained: reuse the queue's storage instead of growing it
				// by every request the run will ever see.
				q.reqs, q.qhead = q.reqs[:0], 0
			}
			s.busy = true
			w = s.h.Begin(s.batch)
		}
		if w != sim.Resume || s.h.NeedsProc() {
			return w
		}
		s.busy = false
	}
}
