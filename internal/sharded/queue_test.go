package sharded

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestQueueFIFO(t *testing.T) {
	s := testSys(t)
	q, err := NewQueue[int](s, "q", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if err := q.Push(p, 0, i, 100); err != nil {
				t.Fatalf("Push: %v", err)
			}
		}
		if q.depth() != 20 {
			t.Errorf("Len = %d, want 20", q.depth())
		}
		for i := 0; i < 20; i++ {
			val, ok, err := q.TryPop(p, 1)
			if err != nil || !ok || val != i {
				t.Fatalf("TryPop #%d = %d,%v,%v", i, val, ok, err)
			}
		}
		if _, ok, _ := q.TryPop(p, 1); ok {
			t.Error("TryPop on empty queue returned ok")
		}
	})
	s.K.Run()
}

func TestQueueBlockingPop(t *testing.T) {
	s := testSys(t)
	q, _ := NewQueue[string](s, "q", smallOpts())
	var got string
	var at sim.Time
	s.K.Spawn("consumer", func(p *sim.Proc) {
		v, err := q.Pop(p, 1)
		if err != nil {
			t.Errorf("Pop: %v", err)
		}
		got, at = v, p.Now()
	})
	s.K.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		q.Push(p, 0, "item", 100)
	})
	s.K.Run()
	if got != "item" {
		t.Errorf("got %q", got)
	}
	if at < 5*sim.Millisecond {
		t.Errorf("consumer woke at %v, before the push", at)
	}
}

func TestQueueSealsAndRetiresSegments(t *testing.T) {
	s := testSys(t)
	q, _ := NewQueue[[]byte](s, "q", Options{MaxShardBytes: 8 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if err := q.Push(p, 0, nil, 1<<10); err != nil {
				t.Fatalf("Push: %v", err)
			}
		}
		if q.Seals == 0 || len(q.segs) < 2 {
			t.Errorf("Seals=%d segments=%d, want rollover", q.Seals, len(q.segs))
		}
		for i := 0; i < 50; i++ {
			if _, ok, err := q.TryPop(p, 1); !ok || err != nil {
				t.Fatalf("TryPop #%d: ok=%v err=%v", i, ok, err)
			}
		}
		if q.Retires == 0 {
			t.Error("no segments retired after draining")
		}
		if len(q.segs) != 1 {
			t.Errorf("segments = %d after drain, want 1", len(q.segs))
		}
	})
	s.K.Run()
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	s := testSys(t)
	q, _ := NewQueue[int](s, "q", Options{MaxShardBytes: 16 << 10})
	const perProducer = 25
	const producers, consumers = 3, 2
	popped := make(map[int]int)
	var wg sim.WaitGroup
	wg.Add(producers)
	for pi := 0; pi < producers; pi++ {
		pi := pi
		s.K.Spawn("producer", func(p *sim.Proc) {
			for i := 0; i < perProducer; i++ {
				if err := q.Push(p, 0, pi*1000+i, 512); err != nil {
					t.Errorf("Push: %v", err)
				}
				p.Sleep(100 * time.Microsecond)
			}
			wg.Done()
		})
	}
	total := producers * perProducer
	remaining := total
	for ci := 0; ci < consumers; ci++ {
		s.K.Spawn("consumer", func(p *sim.Proc) {
			for remaining > 0 {
				v, ok, err := q.TryPop(p, 1)
				if err != nil {
					t.Errorf("TryPop: %v", err)
					return
				}
				if !ok {
					p.Sleep(200 * time.Microsecond)
					continue
				}
				remaining--
				popped[v]++
			}
		})
	}
	s.K.Run()
	if len(popped) != total {
		t.Fatalf("popped %d distinct items, want %d", len(popped), total)
	}
	for v, n := range popped {
		if n != 1 {
			t.Errorf("item %d popped %d times", v, n)
		}
	}
}

func TestQueuePopWaitsForInflightPush(t *testing.T) {
	// A consumer that claims a sequence number whose push is still on
	// the wire must wait for the data, not error.
	s := testSys(t)
	q, _ := NewQueue[int](s, "q", smallOpts())
	var got int
	s.K.Spawn("producer", func(p *sim.Proc) {
		// Large payload: the put RPC takes ~ms on the wire.
		if err := q.Push(p, 0, 42, 10<<20); err != nil {
			t.Errorf("Push: %v", err)
		}
	})
	s.K.Spawn("consumer", func(p *sim.Proc) {
		p.Yield() // let the producer reserve its seq first
		v, err := q.Pop(p, 1)
		if err != nil {
			t.Errorf("Pop: %v", err)
		}
		got = v
	})
	s.K.Run()
	if got != 42 {
		t.Errorf("got %d, want 42", got)
	}
}

func TestQueueMaxDepthTracking(t *testing.T) {
	s := testSys(t)
	q, _ := NewQueue[int](s, "q", smallOpts())
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			q.Push(p, 0, i, 64)
		}
		q.TryPop(p, 0)
		q.Push(p, 0, 11, 64)
	})
	s.K.Run()
	if q.MaxDepth != 10 {
		t.Errorf("MaxDepth = %d, want 10", q.MaxDepth)
	}
}

func TestQueueCloseReleasesMemory(t *testing.T) {
	s := testSys(t)
	q, _ := NewQueue[int](s, "q", smallOpts())
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			q.Push(p, 0, i, 1<<10)
		}
		q.close()
	})
	s.K.Run()
	total := s.Cluster.Machine(0).MemUsed() + s.Cluster.Machine(1).MemUsed()
	if total != 0 {
		t.Errorf("memory leaked after Close: %d", total)
	}
}
