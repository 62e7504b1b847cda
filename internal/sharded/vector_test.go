package sharded

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// testSys builds a system with two 1-GiB machines and a small shard cap
// so structural adaptation is easy to trigger.
func testSys(t *testing.T, machines ...cluster.MachineConfig) *core.System {
	t.Helper()
	if len(machines) == 0 {
		machines = []cluster.MachineConfig{
			{Cores: 8, MemBytes: 1 << 30},
			{Cores: 8, MemBytes: 1 << 30},
		}
	}
	return core.NewSystem(core.DefaultConfig(), machines)
}

func smallOpts() Options {
	return Options{MaxShardBytes: 64 << 10} // 64 KiB shards
}

func TestVectorPushGet(t *testing.T) {
	s := testSys(t)
	v, err := NewVector[string](s, "vec", smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if err := v.PushBack(p, 0, fmt.Sprintf("val-%d", i), 100); err != nil {
				t.Fatalf("PushBack: %v", err)
			}
		}
		if v.Len() != 50 {
			t.Errorf("Len = %d, want 50", v.Len())
		}
		for _, i := range []uint64{0, 17, 49} {
			got, err := v.Get(p, 0, i)
			if err != nil || got != fmt.Sprintf("val-%d", i) {
				t.Errorf("Get(%d) = %q, %v", i, got, err)
			}
		}
		if _, err := v.Get(p, 0, 50); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("out-of-range err = %v", err)
		}
	})
	s.K.Run()
}

func TestVectorSplitsWhenOversized(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[[]byte](s, "vec", Options{MaxShardBytes: 10 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		// 40 x 1 KiB: must split repeatedly at the 10 KiB cap.
		for i := 0; i < 40; i++ {
			if err := v.PushBack(p, 0, make([]byte, 0), 1<<10); err != nil {
				t.Fatalf("PushBack: %v", err)
			}
		}
		if v.NumShards() < 3 {
			t.Errorf("NumShards = %d, want >= 3 after splits", v.NumShards())
		}
		if v.Splits == 0 {
			t.Error("no splits recorded")
		}
		// Every shard within budget (allowing one in-flight overshoot).
		for i, mp := range v.Shards() {
			if mp.HeapBytes() > 2*v.opts.MaxShardBytes {
				t.Errorf("shard %d = %d bytes, way over cap", i, mp.HeapBytes())
			}
		}
		// All elements still reachable after splits.
		for i := uint64(0); i < 40; i++ {
			if _, err := v.Get(p, 0, i); err != nil {
				t.Errorf("Get(%d) after splits: %v", i, err)
			}
		}
	})
	s.K.Run()
}

func TestVectorShardsSpreadAcrossMachines(t *testing.T) {
	// With a small per-machine RAM and placement by most-free-memory,
	// shards of one vector must land on both machines — the fig2
	// mechanism for combining memory of imbalanced machines.
	s := testSys(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 200 << 10},
		cluster.MachineConfig{Cores: 4, MemBytes: 200 << 10},
	)
	v, _ := NewVector[int](s, "vec", Options{MaxShardBytes: 32 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			if err := v.PushBack(p, 0, i, 1<<10); err != nil {
				t.Fatalf("PushBack %d: %v", i, err)
			}
		}
	})
	s.K.Run()
	seen := map[cluster.MachineID]bool{}
	for _, mp := range v.Shards() {
		seen[mp.Location()] = true
	}
	if len(seen) < 2 {
		t.Errorf("shards on %d machine(s), want both", len(seen))
	}
}

func TestVectorMergeAfterShrink(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[[]byte](s, "vec", Options{MaxShardBytes: 10 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			v.PushBack(p, 0, make([]byte, 0), 1<<10)
		}
		before := v.NumShards()
		if before < 3 {
			t.Fatalf("need splits first, got %d shards", before)
		}
		// Shrink all elements to near-zero size in place, then adapt.
		for i := uint64(0); i < 40; i++ {
			if err := v.shards[v.shardIdx(i)].mp.Put(p, 0, i+1, []byte(nil), 1); err != nil {
				t.Fatalf("Put(%d): %v", i, err)
			}
		}
		v.Adapt(p)
		if v.NumShards() >= before {
			t.Errorf("shards %d -> %d, want merges", before, v.NumShards())
		}
		if v.Merges == 0 {
			t.Error("no merges recorded")
		}
		for i := uint64(0); i < 40; i++ {
			if _, err := v.Get(p, 0, i); err != nil {
				t.Errorf("Get(%d) after merge: %v", i, err)
			}
		}
	})
	s.K.Run()
}

func TestVectorIterSequential(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[int](s, "vec", Options{MaxShardBytes: 8 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			v.PushBack(p, 0, i, 256)
		}
		it := v.Iter(16)
		var got []int
		for {
			val, ok, err := it.Next(p, 1) // consume from the other machine
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				break
			}
			got = append(got, val)
		}
		if len(got) != 100 {
			t.Fatalf("iterated %d elements, want 100", len(got))
		}
		for i, val := range got {
			if val != i {
				t.Fatalf("element %d = %d, out of order", i, val)
			}
		}
		if it.Fetches == 0 || it.Fetches > 20 {
			t.Errorf("Fetches = %d, want batched (~7-13)", it.Fetches)
		}
	})
	s.K.Run()
}

func TestVectorIterNoPrefetchFallback(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[int](s, "vec", smallOpts())
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			v.PushBack(p, 0, i, 128)
		}
		it := v.Iter(0) // synchronous
		count := 0
		for {
			val, ok, err := it.Next(p, 0)
			if err != nil || (!ok && count != 10) && err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				break
			}
			if val != count {
				t.Fatalf("val = %d, want %d", val, count)
			}
			count++
		}
		if count != 10 {
			t.Errorf("count = %d", count)
		}
	})
	s.K.Run()
}

func TestVectorIterPrefetchOverlapsCompute(t *testing.T) {
	// With prefetching, total time for fetch+compute over remote data
	// should approach max(fetch, compute), not their sum.
	run := func(batch int) sim.Time {
		s := testSys(t)
		v, _ := NewVector[[]byte](s, "vec", Options{MaxShardBytes: 1 << 30})
		var done sim.Time
		s.K.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				if err := v.PushBack(p, 1, make([]byte, 0), 1<<20); err != nil {
					t.Fatalf("PushBack: %v", err)
				}
			}
			start := p.Now()
			it := v.Iter(batch)
			m := s.Cluster.Machine(0)
			for {
				_, ok, err := it.Next(p, 0)
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				if !ok {
					break
				}
				m.Exec(p, 100*time.Microsecond) // per-element compute
			}
			done = sim.Time(p.Now().Sub(start))
		})
		s.K.Run()
		return done
	}
	withPrefetch := run(8)
	without := run(0)
	if withPrefetch >= without {
		t.Errorf("prefetch (%v) not faster than sync (%v)", withPrefetch, without)
	}
}

func TestVectorClose(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[int](s, "vec", smallOpts())
	s.K.Spawn("driver", func(p *sim.Proc) {
		v.PushBack(p, 0, 1, 100)
		v.close()
		if err := v.PushBack(p, 0, 2, 100); !errors.Is(err, ErrClosed) {
			t.Errorf("push after close: %v", err)
		}
	})
	s.K.Run()
	total := s.Cluster.Machine(0).MemUsed() + s.Cluster.Machine(1).MemUsed()
	if total != 0 {
		t.Errorf("memory leaked after Close: %d bytes", total)
	}
}

func TestVectorIterExactlyOnceUnderSplits(t *testing.T) {
	// Regression: a split racing a prefetch must never skip or shift
	// elements (this desynchronized index/value pairs in ForEachVec).
	s := testSys(t)
	v, _ := NewVector[int](s, "vec", Options{MaxShardBytes: 4 << 10})
	var got []int
	s.K.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			if err := v.PushBack(p, 0, i, 256); err != nil {
				t.Errorf("PushBack: %v", err)
				return
			}
			p.Sleep(20 * time.Microsecond)
		}
	})
	s.K.Spawn("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		it := v.Iter(8)
		for len(got) < 300 {
			val, ok, err := it.Next(p, 1)
			if err != nil {
				t.Errorf("Next: %v", err)
				return
			}
			if !ok {
				p.Sleep(100 * time.Microsecond) // writer still appending
				continue
			}
			got = append(got, val)
			p.Sleep(10 * time.Microsecond)
		}
	})
	s.K.Run()
	if len(got) < 300 {
		t.Fatalf("read %d elements, want 300", len(got))
	}
	for i, val := range got {
		if val != i {
			t.Fatalf("element %d = %d (exactly-once/order violated); splits=%d", i, val, v.Splits)
		}
	}
	if v.Splits == 0 {
		t.Error("test did not exercise splits")
	}
}

func TestVectorNoLossWhenAdaptRacesAppends(t *testing.T) {
	// Regression: an adaptation-loop split of the tail shard used to
	// compute its bounds before draining an in-flight append, stranding
	// the new element in the old shard (unroutable).
	s := testSys(t)
	s.Start()
	v, _ := NewVector[int](s, "vec", Options{MaxShardBytes: 8 << 10, AutoAdapt: true})
	const n = 600
	s.K.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := v.PushBack(p, 0, i, 1<<10); err != nil {
				t.Errorf("PushBack(%d): %v", i, err)
				return
			}
		}
		// Every element must be reachable through the final routing.
		for i := uint64(0); i < n; i++ {
			got, err := v.Get(p, 0, i)
			if err != nil {
				t.Errorf("Get(%d): %v", i, err)
				return
			}
			if got != int(i) {
				t.Errorf("Get(%d) = %d", i, got)
			}
		}
		s.K.Stop()
	})
	s.K.Run()
	if v.Splits == 0 {
		t.Error("test did not exercise splits")
	}
}
