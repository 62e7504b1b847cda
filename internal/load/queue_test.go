package load

import (
	"fmt"
	"reflect"
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

func (serveFunc) Step() sim.Wait { return sim.Resume }

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
	q.Serve(k, nil, horizon, 10*time.Microsecond, 2, serveFunc(func(batch []Request) time.Duration {
		for _, r := range batch {
			served = append(served, r.Key)
		}
		return 30 * time.Microsecond // service time: the backlog outlives the horizon
	}), func() { exited = k.Now() })
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
	if n := k.Switches(); n != 0 {
		t.Errorf("the server was switched in %d times; a staged server never is", n)
	}
}

// TestQueueServeExitsAtTheHorizonWhenIdle: with nothing left the server
// leaves at its first poll at or after the horizon.
func TestQueueServeExitsAtTheHorizonWhenIdle(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	var q Queue
	exited := sim.Time(-1)
	q.Serve(k, nil, 95*us, 10*time.Microsecond, 4, serveFunc(func([]Request) time.Duration {
		t.Error("handle called with nothing queued")
		return 0
	}), func() { exited = k.Now() })
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
		q.Serve(k, nil, 50*us, time.Microsecond, max, serveFunc(func(batch []Request) time.Duration {
			if len(batch) == 0 || len(batch) > max {
				t.Errorf("batch of %d, want 1..%d", len(batch), max)
			}
			for _, r := range batch {
				seen[r.Key]++
			}
			return 2 * time.Microsecond
		}), nil)
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
	q.Serve(k, nil, sim.Time(time.Hour), time.Microsecond, 8, serveFunc(func(batch []Request) time.Duration {
		served += len(batch)
		return 0
	}), nil)
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

// TestQueueServeRejectsMaxBelowOne: a server that may take no request
// would spin at one instant forever (max 0) or fail to size its batch
// (max < 0); Serve refuses both up front, naming the value, and spawns
// nothing.
func TestQueueServeRejectsMaxBelowOne(t *testing.T) {
	for _, max := range []int{0, -3} {
		k := sim.NewKernel(1)
		var q Queue
		q.Push(Request{Key: 1})
		got := func() (r any) {
			defer func() { r = recover() }()
			q.Serve(k, nil, 10*us, time.Microsecond, max, serveFunc(func([]Request) time.Duration { return 0 }), nil)
			return nil
		}()
		want := fmt.Sprintf("Queue.Serve with max %d", max)
		if s, _ := got.(string); !strings.Contains(s, want) {
			t.Errorf("max %d: Serve panicked with %v, want a panic naming %q", max, got, want)
		}
		if k.Live() != 0 {
			t.Errorf("max %d: a refused Serve left %d processes live", max, k.Live())
		}
		k.Close()
	}
}

// TestQueueServeRejectsPollNotPositive: a server that polls an empty
// queue at After(0) re-queues itself at the same instant forever, so the
// clock never reaches the horizon; Serve refuses a poll <= 0 up front,
// naming the value, and spawns nothing.
func TestQueueServeRejectsPollNotPositive(t *testing.T) {
	for _, poll := range []time.Duration{0, -time.Microsecond} {
		k := sim.NewKernel(1)
		var q Queue
		got := func() (r any) {
			defer func() { r = recover() }()
			q.Serve(k, nil, 2*us, poll, 1, serveFunc(func([]Request) time.Duration { return 0 }), nil)
			return nil
		}()
		want := fmt.Sprintf("Queue.Serve with poll %v", poll)
		if s, _ := got.(string); !strings.Contains(s, want) {
			t.Errorf("poll %v: Serve panicked with %v, want a panic naming %q", poll, got, want)
		}
		if k.Live() != 0 {
			t.Errorf("poll %v: a refused Serve left %d processes live", poll, k.Live())
		}
		k.Close()
	}
}

// eventInjector is the injector as it was before arrivals became sequence
// numbers: every request is a kernel event of its own, scheduled when its
// window is drawn and handed over at its arrival instant. It draws and
// numbers exactly as Injector does.
type eventInjector struct {
	*Injector
	fire func(uint64)
}

func newEventInjector(k *sim.Kernel, window time.Duration, handler func(Request)) *eventInjector {
	ei := &eventInjector{Injector: NewInjector(k, window, handler)}
	ei.fire = func(i uint64) { ei.handler(ei.pending[i]) }
	ei.batch = func(uint64) { ei.runBatch() }
	return ei
}

func (ei *eventInjector) runBatch() {
	t0 := ei.k.Now()
	t1 := min(t0+ei.window, ei.horizon)
	ei.pending = ei.pending[:0]
	for si := range ei.streams {
		s := &ei.streams[si]
		for _, at := range s.arr.Draw(t0, t1) {
			ei.pending = append(ei.pending, Request{At: at, Key: ScrambleKey(s.zipf.Sample(s.rng))})
		}
	}
	for i := range ei.pending {
		ei.k.ScheduleTagged(ei.pending[i].At, ei.fire, uint64(i))
	}
	if t1 < ei.horizon {
		ei.k.ScheduleTagged(t1, ei.batch, 0)
	}
}

// servedBatch is one batch a server took: which server, when, and what.
type servedBatch struct {
	server int
	at     sim.Time
	keys   []uint64
}

// serveArrivals runs three servers polling every nanosecond over a queue
// fed by two tenants at 2e9 requests/s in 100 ns windows, through the
// injector or, with events set, through eventInjector, whose arrivals
// push themselves at their instants. It returns every batch taken and
// how many arrivals fell on their window's first instant.
func serveArrivals(seed int64, events bool) (batches []servedBatch, atStart int) {
	k := sim.NewKernel(seed)
	defer k.Close()
	var q Queue
	const window = 100 * time.Nanosecond
	horizon := sim.Time(2 * time.Microsecond)
	push := func(r Request) {
		if r.At == k.Now() && k.Now()%sim.Time(window) == 0 {
			atStart++
		}
		q.Push(r)
	}
	var inj *Injector
	if events {
		inj = newEventInjector(k, window, push).Injector // its batch runs eventInjector's
	} else {
		inj = NewInjector(k, window, push)
	}
	z := NewZipf(1000, 0.9)
	inj.AddTenant("a", Constant(1.4e9), z)
	inj.AddTenant("b", Constant(0.6e9), z)
	for i := 0; i < 3; i++ {
		q.Serve(k, nil, horizon, time.Nanosecond, 1+i, serveFunc(func(batch []Request) time.Duration {
			b := servedBatch{server: i, at: k.Now()}
			for _, r := range batch {
				b.keys = append(b.keys, r.Key)
			}
			batches = append(batches, b)
			return time.Duration(1+len(batch)%3) * time.Nanosecond
		}), nil)
	}
	inj.Start(0, horizon)
	k.Run()
	return batches, atStart
}

// TestQueueMatchesEventInjector: servers see the queue an event per
// arrival would have filled. Three servers poll every nanosecond, so an
// arrival ties with a poll at its own instant: at a window's first
// instant the poll was queued before the batch event numbered the
// window's arrivals and must not see them; at every later instant the
// poll was queued after it and must. Each server takes the same batches
// at the same instants as over the reference injector, on 20 seeds.
//
// Checked to fail when the queue ignores the sequence number (a request
// has arrived once At <= now) and when the injector breaks an At tie
// between tenants by the later tenant.
func TestQueueMatchesEventInjector(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, atStart := serveArrivals(seed, false)
		want, _ := serveArrivals(seed, true)
		if atStart < 5 || len(want) < 1000 {
			t.Fatalf("seed %d: %d arrivals at a window's first instant, %d batches: the ties this test is for did not happen", seed, atStart, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d batches taken, the reference takes %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: batch %d is %+v, the reference's is %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestQueueStorageStaysBounded: future arrivals wait in the queue while a
// window is served, so it is never drained when the next window lands;
// the served prefix is reclaimed instead, and a server that keeps up over
// 200 windows leaves the queue holding a few windows' arrivals, not the
// run's.
func TestQueueStorageStaysBounded(t *testing.T) {
	k := sim.NewKernel(3)
	defer k.Close()
	var q Queue
	const window = 100 * time.Microsecond
	horizon := sim.Time(200 * window)
	inj := NewInjector(k, window, q.Push)
	inj.AddTenant("a", Constant(1e6), NewZipf(1000, 0.9))
	served := 0
	q.Serve(k, nil, horizon, 10*time.Microsecond, 64, serveFunc(func(batch []Request) time.Duration {
		served += len(batch)
		return 0
	}), nil)
	inj.Start(0, horizon)
	k.Run()
	if uint64(served) != inj.TotalGenerated() || served < 19000 {
		t.Fatalf("served %d of %d requests", served, inj.TotalGenerated())
	}
	if c := cap(q.reqs); c > 4*130 {
		t.Errorf("queue storage grew to %d requests over 200 windows of about 100: want a few windows' worth", c)
	}
}
