package load

import (
	"testing"
	"time"

	"repro/internal/sim"
)

const us = sim.Time(time.Microsecond)

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
		q.Serve(p, horizon, 10*time.Microsecond, 2, func(batch []Request) {
			for _, r := range batch {
				served = append(served, r.Key)
			}
			p.Sleep(30 * time.Microsecond) // service time: the backlog outlives the horizon
		})
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
		q.Serve(p, 95*us, 10*time.Microsecond, 4, func([]Request) { t.Error("handle called with nothing queued") })
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
			q.Serve(p, 50*us, time.Microsecond, max, func(batch []Request) {
				if len(batch) == 0 || len(batch) > max {
					t.Errorf("batch of %d, want 1..%d", len(batch), max)
				}
				for _, r := range batch {
					seen[r.Key]++
				}
				p.Sleep(2 * time.Microsecond)
			})
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
		q.Serve(p, sim.Time(time.Hour), time.Microsecond, 8, func(batch []Request) { served += len(batch) })
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
