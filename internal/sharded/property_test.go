package sharded

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// Property: the sharded queue is a FIFO under arbitrary interleavings
// of pushes and pops (driven by a random op tape), matching a model
// queue exactly, including across segment seals and retires.
func TestQueueMatchesModelProperty(t *testing.T) {
	f := func(tape []uint8) bool {
		s := testSys(t)
		q, err := NewQueue[int](s, "model", Options{MaxShardBytes: 4 << 10})
		if err != nil {
			return false
		}
		ok := true
		s.K.Spawn("driver", func(p *sim.Proc) {
			var model []int
			next := 0
			for _, op := range tape {
				if op%3 != 0 { // 2/3 pushes
					if err := q.Push(p, 0, next, 256); err != nil {
						ok = false
						return
					}
					model = append(model, next)
					next++
				} else {
					got, gotOK, err := q.TryPop(p, 1)
					if err != nil {
						ok = false
						return
					}
					if gotOK != (len(model) > 0) {
						ok = false
						return
					}
					if gotOK {
						if got != model[0] {
							ok = false
							return
						}
						model = model[1:]
					}
				}
			}
			if q.depth() != uint64(len(model)) {
				ok = false
				return
			}
			// Drain and compare the tail.
			for _, want := range model {
				got, gotOK, err := q.TryPop(p, 1)
				if err != nil || !gotOK || got != want {
					ok = false
					return
				}
			}
		})
		s.K.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: vector contents equal the model after arbitrary sequences
// of pushes, reads, and adaptation passes, and total accounted memory
// equals the sum of shard heaps.
func TestVectorMatchesModelProperty(t *testing.T) {
	f := func(tape []uint16) bool {
		s := testSys(t)
		v, err := NewVector[int](s, "model", Options{MaxShardBytes: 4 << 10})
		if err != nil {
			return false
		}
		ok := true
		s.K.Spawn("driver", func(p *sim.Proc) {
			var model []int
			for _, op := range tape {
				switch op % 4 {
				case 0, 1: // push
					val := int(op)
					if err := v.PushBack(p, 0, val, 200); err != nil {
						ok = false
						return
					}
					model = append(model, val)
				case 2: // read
					if len(model) == 0 {
						continue
					}
					idx := int(op) % len(model)
					if got, err := v.Get(p, 0, uint64(idx)); err != nil || got != model[idx] {
						ok = false
						return
					}
				case 3: // adapt (split/merge pass)
					v.Adapt(p)
				}
			}
			if v.Len() != uint64(len(model)) {
				ok = false
				return
			}
			for i, want := range model {
				got, err := v.Get(p, 0, uint64(i))
				if err != nil || got != want {
					ok = false
					return
				}
			}
		})
		s.K.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: IterRange over any subrange yields exactly the elements of
// that range, in order, for any batch size.
func TestIterRangeExactProperty(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[int](s, "vec", Options{MaxShardBytes: 4 << 10})
	const n = 120
	s.K.Spawn("loader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			v.PushBack(p, 0, i, 200)
		}
	})
	s.K.Run()

	f := func(loRaw, hiRaw uint8, batchRaw uint8) bool {
		lo := uint64(loRaw) % n
		hi := uint64(hiRaw) % (n + 1)
		if hi < lo {
			lo, hi = hi, lo
		}
		batch := int(batchRaw % 17) // includes 0 = sync path
		ok := true
		s.K.Spawn("reader", func(p *sim.Proc) {
			it := v.IterRange(lo, hi, batch)
			want := lo
			for {
				val, more, err := it.Next(p, 1)
				if err != nil {
					ok = false
					return
				}
				if !more {
					break
				}
				if uint64(val) != want {
					ok = false
					return
				}
				want++
			}
			if want != hi {
				ok = false
			}
		})
		s.K.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: memory accounting is conserved — after any workload, the
// bytes resident on all machines equal the sum of live proclet heaps.
func TestMemoryConservationProperty(t *testing.T) {
	f := func(tape []uint8) bool {
		s := testSys(t)
		v, err := NewVector[[]byte](s, "v", Options{MaxShardBytes: 8 << 10})
		if err != nil {
			return false
		}
		s.K.Spawn("driver", func(p *sim.Proc) {
			for _, op := range tape {
				v.PushBack(p, 0, nil, int64(op)*16+64)
				if op%5 == 0 {
					v.Adapt(p)
				}
			}
		})
		s.K.Run()
		var machineTotal int64
		for _, m := range s.Cluster.Machines() {
			machineTotal += m.MemUsed()
		}
		var procletTotal int64
		for _, pr := range s.Runtime.Proclets() {
			procletTotal += pr.HeapBytes()
		}
		return machineTotal == procletTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Determinism: the same structural workload produces identical shard
// layouts and traces across runs.
func TestShardedDeterminism(t *testing.T) {
	run := func() (int, int64, uint64) {
		s := testSys(t)
		v, _ := NewVector[int](s, "d", Options{MaxShardBytes: 8 << 10})
		s.K.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				v.PushBack(p, 0, i, int64(128+(i*37)%512))
				if i%50 == 0 {
					p.Sleep(time.Duration(i) * time.Microsecond)
				}
			}
			v.Adapt(p)
		})
		s.K.Run()
		return v.NumShards(), v.Splits, s.K.EventsProcessed()
	}
	s1, sp1, e1 := run()
	s2, sp2, e2 := run()
	if s1 != s2 || sp1 != sp2 || e1 != e2 {
		t.Errorf("nondeterminism: shards %d/%d splits %d/%d events %d/%d",
			s1, s2, sp1, sp2, e1, e2)
	}
}
