package sharded

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Failure injection: sharded structures must surface capacity
// exhaustion as clean errors without corrupting state or leaking
// memory.

func TestVectorPushWhenClusterFull(t *testing.T) {
	s := testSys(t,
		cluster.MachineConfig{Cores: 2, MemBytes: 64 << 10},
		cluster.MachineConfig{Cores: 2, MemBytes: 64 << 10},
	)
	v, err := NewVector[int](s, "vec", Options{MaxShardBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		var pushErr error
		pushed := 0
		for i := 0; i < 200; i++ {
			if pushErr = v.PushBack(p, 0, i, 1<<10); pushErr != nil {
				break
			}
			pushed++
		}
		if pushErr == nil {
			t.Fatal("expected capacity exhaustion")
		}
		if !errors.Is(pushErr, cluster.ErrNoMemory) && !errors.Is(pushErr, core.ErrNoCapacity) {
			t.Errorf("push error = %v, want memory/capacity error", pushErr)
		}
		if pushed < 50 {
			t.Errorf("pushed only %d before failing; cluster should hold ~100", pushed)
		}
		// Everything that was acknowledged must still be readable.
		for i := uint64(0); i < uint64(pushed); i++ {
			if _, err := v.Get(p, 0, i); err != nil {
				t.Errorf("Get(%d) after partial fill: %v", i, err)
			}
		}
	})
	s.K.Run()
}

func TestMapPutWhenClusterFull(t *testing.T) {
	s := testSys(t,
		cluster.MachineConfig{Cores: 2, MemBytes: 64 << 10},
		cluster.MachineConfig{Cores: 2, MemBytes: 64 << 10},
	)
	m, _ := NewMap[int, int](s, "map", Options{MaxShardBytes: 16 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		var putErr error
		inserted := 0
		for i := 0; i < 200; i++ {
			if putErr = m.Put(p, 0, i, i, 1<<10); putErr != nil {
				break
			}
			inserted++
		}
		if putErr == nil {
			t.Fatal("expected capacity exhaustion")
		}
		if int64(inserted) != m.Len() {
			t.Errorf("Len = %d, want %d (failed put must not count)", m.Len(), inserted)
		}
		// Deleting frees capacity and writes work again.
		for i := 0; i < inserted/2; i++ {
			if err := m.Delete(p, 0, i); err != nil {
				t.Fatalf("Delete(%d): %v", i, err)
			}
		}
		if err := m.Put(p, 0, 9999, 1, 1<<10); err != nil {
			t.Errorf("Put after freeing space: %v", err)
		}
	})
	s.K.Run()
}

func TestQueueBackpressureOnFullCluster(t *testing.T) {
	s := testSys(t,
		cluster.MachineConfig{Cores: 2, MemBytes: 96 << 10},
		cluster.MachineConfig{Cores: 2, MemBytes: 96 << 10},
	)
	q, _ := NewQueue[int](s, "q", Options{MaxShardBytes: 32 << 10})
	s.K.Spawn("producer", func(p *sim.Proc) {
		var pushErr error
		pushed := 0
		for i := 0; i < 300; i++ {
			if pushErr = q.Push(p, 0, i, 1<<10); pushErr != nil {
				break
			}
			pushed++
		}
		if pushErr == nil {
			t.Fatal("expected capacity exhaustion")
		}
		// Consumption drains memory; production can resume.
		for i := 0; i < pushed; i++ {
			if _, ok, err := q.TryPop(p, 1); !ok || err != nil {
				t.Fatalf("TryPop #%d: ok=%v err=%v", i, ok, err)
			}
		}
		if err := q.Push(p, 0, 1, 1<<10); err != nil {
			t.Errorf("Push after drain: %v", err)
		}
	})
	s.K.Run()
}

func TestVectorReadDuringMemoryEvacuation(t *testing.T) {
	// Reads must stay correct while the memory reactor migrates shards
	// away from a machine under pressure.
	s := testSys(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 300 << 10},
		cluster.MachineConfig{Cores: 4, MemBytes: 2 << 20},
	)
	s.Start()
	v, _ := NewVector[int](s, "vec", Options{MaxShardBytes: 64 << 10})
	readErrs := 0
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 150; i++ {
			if err := v.PushBack(p, 0, i, 1<<10); err != nil {
				t.Fatalf("PushBack(%d): %v", i, err)
			}
		}
		// Interleave reads with ongoing reactor activity.
		for round := 0; round < 5; round++ {
			for i := uint64(0); i < 150; i += 7 {
				if got, err := v.Get(p, 0, i); err != nil || got != int(i) {
					readErrs++
				}
			}
			p.Sleep(2 * time.Millisecond)
		}
		s.K.Stop()
	})
	s.K.Run()
	if readErrs != 0 {
		t.Errorf("%d reads failed during evacuation", readErrs)
	}
}

func TestCloseIsIdempotentUnderFailure(t *testing.T) {
	s := testSys(t)
	v, _ := NewVector[int](s, "vec", smallOpts())
	m, _ := NewMap[int, int](s, "map", smallOpts())
	q, _ := NewQueue[int](s, "q", smallOpts())
	v.close()
	v.close()
	m.close()
	m.close()
	q.close()
	q.close()
	used := s.Cluster.Machine(0).MemUsed() + s.Cluster.Machine(1).MemUsed()
	if used != 0 {
		t.Errorf("double close leaked %d bytes", used)
	}
}
