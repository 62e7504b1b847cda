package load

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

const us = sim.Time(time.Microsecond)

// serveFunc is a Handler that serves a batch with serve, in kernel context,
// and then waits out the service time serve returns, if any.
type serveFunc func(batch []Request) time.Duration

func (f serveFunc) Begin(batch []Request) sim.Wait {
	if d := f(batch); d > 0 {
		return sim.After(d)
	}
	return sim.Resume
}

func (serveFunc) Step() sim.Wait   { return sim.Resume }
func (serveFunc) NeedsProc() bool  { return false }
func (serveFunc) Exec(p *sim.Proc) { panic("serveFunc never needs a process") }

// TestQueueServeDrainsPastTheHorizon: a server leaves only when the
// queue is empty and the horizon has passed — not at the horizon with
// work queued, and not on an empty queue before it.
func TestQueueServeDrainsPastTheHorizon(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	var q Queue
	horizon := 100 * us
	var served []uint64
	var exited sim.Time
	k.Spawn("server", func(p *sim.Proc) {
		q.Serve(p, horizon, 10*time.Microsecond, 2, serveFunc(func(batch []Request) time.Duration {
			for _, r := range batch {
				served = append(served, r.Key)
			}
			return 30 * time.Microsecond // service time: the backlog outlives the horizon
		}))
		exited = p.Now()
	})
	// Nothing queued for the first 80 µs, then a burst of seven.
	k.Schedule(80*us, func() {
		for i := uint64(0); i < 7; i++ {
			q.Push(Request{At: k.Now(), Key: i})
		}
	})
	k.RunUntil(70 * us)
	if exited != 0 {
		t.Fatalf("server left an empty queue at %v, before the %v horizon", exited, horizon)
	}
	k.Run()
	if len(served) != 7 {
		t.Fatalf("served %v, want all seven arrivals", served)
	}
	for i, key := range served {
		if key != uint64(i) {
			t.Fatalf("served %v, want arrival order", served)
		}
	}
	// Four batches of <= 2 at 30 µs each, starting at the first poll at or
	// after 80 µs: the last ends at 200 µs, well past the horizon.
	if exited != 200*us {
		t.Errorf("server exited at %v, want 200µs (when the backlog was drained)", exited)
	}
}

// TestQueueServeExitsAtTheHorizonWhenIdle: with nothing left the server
// leaves at its first poll at or after the horizon.
func TestQueueServeExitsAtTheHorizonWhenIdle(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	var q Queue
	exited := sim.Time(-1)
	k.Spawn("server", func(p *sim.Proc) {
		q.Serve(p, 95*us, 10*time.Microsecond, 4, serveFunc(func([]Request) time.Duration {
			t.Error("handle called with nothing queued")
			return 0
		}))
		exited = p.Now()
	})
	k.Run()
	if exited != 100*us {
		t.Errorf("idle server exited at %v, want 100µs (first 10µs poll past 95µs)", exited)
	}
}

// TestQueueServeBatchBound: no batch exceeds max, two servers sharing a
// queue split it without loss or duplication, and a drained queue is
// reused from the start.
func TestQueueServeBatchBound(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	var q Queue
	const max = 5
	seen := make(map[uint64]int)
	for s := 0; s < 2; s++ {
		k.Spawn("server", func(p *sim.Proc) {
			q.Serve(p, 50*us, time.Microsecond, max, serveFunc(func(batch []Request) time.Duration {
				if len(batch) == 0 || len(batch) > max {
					t.Errorf("batch of %d, want 1..%d", len(batch), max)
				}
				for _, r := range batch {
					seen[r.Key]++
				}
				return 2 * time.Microsecond
			}))
		})
	}
	next := uint64(0)
	for at := sim.Time(0); at < 40*us; at += 4 * us {
		k.Schedule(at, func() {
			for i := 0; i < 13; i++ {
				q.Push(Request{Key: next})
				next++
			}
		})
	}
	k.Run()
	if len(seen) != int(next) {
		t.Fatalf("served %d distinct requests of %d pushed", len(seen), next)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("request %d served %d times", key, n)
		}
	}
	if q.qhead != 0 || len(q.reqs) != 0 {
		t.Errorf("drained queue has head %d, len %d; want 0, 0", q.qhead, len(q.reqs))
	}
	if cap(q.reqs) >= int(next) {
		t.Errorf("queue storage grew to %d for %d requests over the run: drained storage was not reused", cap(q.reqs), next)
	}
}

// TestQueueCycleAllocatesNothing: at steady state a push/serve cycle —
// arrivals, the poll that finds them, the batch copy, the drain reset —
// reuses the queue's and the server's storage.
func TestQueueCycleAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	var q Queue
	served := 0
	k.Spawn("server", func(p *sim.Proc) {
		q.Serve(p, sim.Time(time.Hour), time.Microsecond, 8, serveFunc(func(batch []Request) time.Duration {
			served += len(batch)
			return 0
		}))
	})
	cycle := func() {
		for i := 0; i < 20; i++ {
			q.Push(Request{At: k.Now(), Key: uint64(i)})
		}
		k.RunUntil(k.Now() + 5*us)
	}
	for i := 0; i < 10; i++ {
		cycle() // warm up: queue, batch and event storage at capacity
	}
	before := served
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Errorf("a push/serve cycle allocates %v objects, want 0", a)
	}
	if served-before != 201*20 {
		t.Errorf("served %d requests over 201 cycles of 20", served-before)
	}
}

// execHandler needs the server's process once per batch: Begin asks for
// it, Exec sleeps on it for sleep, and Step then waits out wait in kernel
// context before the batch is done.
type execHandler struct {
	sleep, wait time.Duration
	phase       int // 1: waiting for Exec; 2: Exec ran; 3: waiting out wait
	execs       int
	done        []sim.Time
	k           *sim.Kernel
}

func (h *execHandler) Begin([]Request) sim.Wait { h.phase = 1; return sim.Resume }
func (h *execHandler) NeedsProc() bool          { return h.phase == 1 }
func (h *execHandler) Exec(p *sim.Proc)         { h.execs++; p.Sleep(h.sleep); h.phase = 2 }

func (h *execHandler) Step() sim.Wait {
	if h.phase == 2 {
		h.phase = 3
		return sim.After(h.wait)
	}
	h.done = append(h.done, h.k.Now())
	return sim.Resume
}

// TestQueueServeExecRunsOnTheServersProcess: a handler that reaches
// something only a process can do gets the server's process for Exec,
// and Step then carries the batch on; the process is switched in for
// that, and otherwise only at its start and its exit.
func TestQueueServeExecRunsOnTheServersProcess(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	var q Queue
	h := &execHandler{sleep: 3 * time.Microsecond, wait: 4 * time.Microsecond, k: k}
	k.Spawn("server", func(p *sim.Proc) {
		q.Serve(p, 20*us, 10*time.Microsecond, 2, h)
	})
	k.Schedule(5*us, func() {
		for i := uint64(0); i < 3; i++ {
			q.Push(Request{Key: i})
		}
	})
	k.Run()
	// The poll at 10 µs takes two; Exec sleeps 3 µs and Step waits 4: done
	// at 17 µs and the last one taken then, done at 24 µs.
	if fmt.Sprint(h.done) != "[17µs 24µs]" || h.execs != 2 {
		t.Errorf("batches done at %v after %d Execs, want [17µs 24µs] after 2", h.done, h.execs)
	}
	// Start, the two Execs, the two resumes after their sleeps, exit.
	if got := k.Switches(); got != 6 {
		t.Errorf("the server was switched in %d times, want 6", got)
	}
}

// TestQueueServeRejectsMaxBelowOne: a server that may take no request
// would spin at one instant forever (max 0) or fail to size its batch
// (max < 0); Serve refuses both up front, naming the value.
func TestQueueServeRejectsMaxBelowOne(t *testing.T) {
	for _, max := range []int{0, -3} {
		k := sim.NewKernel(1)
		var q Queue
		q.Push(Request{Key: 1})
		k.Spawn("server", func(p *sim.Proc) {
			q.Serve(p, 10*us, time.Microsecond, max, serveFunc(func([]Request) time.Duration { return 0 }))
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			k.Run()
			return nil
		}()
		want := fmt.Sprintf("Queue.Serve with max %d", max)
		if s, _ := got.(string); !strings.Contains(s, want) {
			t.Errorf("max %d: Run panicked with %v, want a panic naming %q", max, got, want)
		}
		k.Close()
	}
}
