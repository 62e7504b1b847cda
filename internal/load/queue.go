package load

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Queue is one shard's arrival queue: an Injector handler pushes each
// window's requests in (At, seq) order when the window starts, and a pool
// of server processes drains it in batches, taking a request only once
// it has arrived (sim.Kernel.Reached): a server sees the queue an event
// per arrival would have filled. It is written and read only in its
// shard's context. The zero value is an empty queue.
type Queue struct {
	reqs  []Request
	qhead int // reqs[:qhead] have been handed to a server
}

// Push appends a request, which must come after every request queued
// before it in (At, seq) order; pass it to NewInjector as the handler. A
// request pushed by hand at its own instant has arrived at once.
func (q *Queue) Push(r Request) {
	if len(q.reqs) == cap(q.reqs) && 2*q.qhead >= len(q.reqs) {
		// Full, and at least half of it served: slide the waiting requests
		// down instead of growing by every request the run will ever see.
		n := copy(q.reqs, q.reqs[q.qhead:])
		q.reqs, q.qhead = q.reqs[:n], 0
	}
	q.reqs = append(q.reqs, r)
}

// due returns how many of the oldest queued requests have arrived by k's
// running event, up to max.
func (q *Queue) due(k *sim.Kernel, max int) int {
	waiting := q.reqs[q.qhead:min(len(q.reqs), q.qhead+max)]
	for i := range waiting {
		if !k.Reached(waiting[i].At, waiting[i].seq) {
			return i
		}
	}
	return len(waiting)
}

// Handler serves the batches a server takes off its Queue, as stages of
// the server's process. Begin takes a batch and Step carries it on; each
// runs in kernel context, in the event that ended the wait before it, and
// returns the next wait, or Resume once the batch is served. Neither may
// block. The batch belongs to the server, which refills it for the next
// Begin.
type Handler interface {
	Begin(batch []Request) sim.Wait
	Step() sim.Wait
}

// Serve spawns one server of the queue on k, a staged process
// (sim.Kernel.SpawnStaged) named by name, and returns its PID. It hands h
// runs of at most max arrived requests, oldest first, until none is
// queued and the horizon has passed — so every arrival before the
// horizon is served, however late. Polling a queue with nothing arrived,
// taking a batch and serving it are all stages of the process, which is
// never switched in. done, when set, runs in the stage the server leaves
// in. Several servers may share one queue.
func (q *Queue) Serve(k *sim.Kernel, name func() string, horizon sim.Time, poll time.Duration, max int, h Handler, done func()) int64 {
	if max < 1 {
		panic(fmt.Sprintf("load: Queue.Serve with max %d: a server takes at least one request at a time", max))
	}
	if poll <= 0 {
		panic(fmt.Sprintf("load: Queue.Serve with poll %v: a server re-checking an empty queue at one instant never lets the clock move", poll))
	}
	s := &server{q: q, k: k, h: h, horizon: horizon, poll: poll, max: max, batch: make([]Request, 0, max), done: done}
	return k.SpawnStaged(name, s.next)
}

// server is one Serve's state between two waits.
type server struct {
	q       *Queue
	k       *sim.Kernel
	h       Handler
	horizon sim.Time
	poll    time.Duration
	max     int
	batch   []Request
	busy    bool // h has a batch in hand
	done    func()
}

// next is the server's stage: it carries the batch in hand on, or takes
// the next one, or polls a queue with nothing arrived, as far as it goes
// without waiting. It returns Resume when the server leaves.
func (s *server) next() sim.Wait {
	q := s.q
	for {
		var w sim.Wait
		if s.busy {
			w = s.h.Step()
		} else {
			n := q.due(s.k, s.max)
			if n == 0 {
				// Nothing has arrived. Past the horizon nothing will: an
				// injector draws every arrival before it.
				if s.k.Now() < s.horizon {
					return sim.After(s.poll)
				}
				if s.done != nil {
					s.done()
				}
				return sim.Resume
			}
			s.batch = append(s.batch[:0], q.reqs[q.qhead:q.qhead+n]...)
			q.qhead += n
			if q.qhead == len(q.reqs) {
				// Drained: reuse the queue's storage from the start.
				q.reqs, q.qhead = q.reqs[:0], 0
			}
			s.busy = true
			w = s.h.Begin(s.batch)
		}
		if w != sim.Resume {
			return w
		}
		s.busy = false
	}
}
