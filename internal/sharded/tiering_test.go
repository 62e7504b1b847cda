package sharded

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// tierSys builds a small-RAM cluster with a flash tier.
func tierSys(t *testing.T, ramPerMachine int64) (*core.System, *storage.Flat) {
	t.Helper()
	s := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 4, MemBytes: ramPerMachine},
		{Cores: 4, MemBytes: ramPerMachine},
	})
	dev := storage.DeviceConfig{
		CapacityBytes: 8 << 30,
		ReadLatency:   80 * time.Microsecond,
		WriteLatency:  20 * time.Microsecond,
		Bandwidth:     2_000_000_000,
	}
	flat, err := storage.NewFlat(s, "flash", 4, dev)
	if err != nil {
		t.Fatal(err)
	}
	return s, flat
}

func TestTieringHoldsDatasetLargerThanRAM(t *testing.T) {
	// 2 x 256 KiB of RAM (minus index/overheads) must hold a 1 MiB
	// dataset by spilling cold shards to flash.
	s, flat := tierSys(t, 256<<10)
	v, err := NewVector[int](s, "big", Options{MaxShardBytes: 64 << 10, Spill: flat})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256 // 256 x 4 KiB = 1 MiB
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := v.PushBack(p, 0, i, 4<<10); err != nil {
				t.Fatalf("PushBack(%d): %v", i, err)
			}
		}
		if v.Spills == 0 {
			t.Fatal("nothing spilled: dataset should exceed RAM")
		}
		// Every element — resident or spilled — must read back.
		for i := uint64(0); i < n; i++ {
			got, err := v.Get(p, 0, i)
			if err != nil {
				t.Fatalf("Get(%d): %v", i, err)
			}
			if got != int(i) {
				t.Fatalf("Get(%d) = %d", i, got)
			}
		}
		if v.Faults == 0 {
			t.Error("reads of spilled ranges recorded no faults")
		}
	})
	s.K.Run()
}

func TestWithoutTierOversizeFails(t *testing.T) {
	s, _ := tierSys(t, 256<<10)
	v, _ := NewVector[int](s, "big", Options{MaxShardBytes: 64 << 10})
	s.K.Spawn("driver", func(p *sim.Proc) {
		var err error
		for i := 0; i < 256; i++ {
			if err = v.PushBack(p, 0, i, 4<<10); err != nil {
				break
			}
		}
		if err == nil {
			t.Error("expected capacity exhaustion without a spill tier")
		}
	})
	s.K.Run()
}

func TestFaultEvictsColdestNotHottest(t *testing.T) {
	s, flat := tierSys(t, 256<<10)
	v, _ := NewVector[int](s, "lru", Options{MaxShardBytes: 64 << 10, Spill: flat})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			if err := v.PushBack(p, 0, i, 4<<10); err != nil {
				t.Fatal(err)
			}
			p.Sleep(10 * time.Microsecond)
		}
		// Heat up the first shard's range repeatedly, then force
		// faults elsewhere: shard 0 must stay resident.
		for round := 0; round < 3; round++ {
			if _, err := v.Get(p, 0, 1); err != nil {
				t.Fatal(err)
			}
			p.Sleep(time.Millisecond)
		}
		hot := v.shardIdx(1)
		if v.shards[hot].spilled {
			// Fault it in and re-heat.
			v.Get(p, 0, 1)
			hot = v.shardIdx(1)
		}
		// Access a spilled high range to trigger eviction pressure.
		if _, err := v.Get(p, 0, 250); err != nil {
			t.Fatal(err)
		}
		if v.shards[v.shardIdx(1)].spilled {
			t.Error("hottest shard was evicted instead of a cold one")
		}
	})
	s.K.Run()
}

func TestTieredIteration(t *testing.T) {
	// A full scan over a dataset 4x RAM must fault every spilled shard
	// in exactly-once order.
	s, flat := tierSys(t, 256<<10)
	v, _ := NewVector[int](s, "scan", Options{MaxShardBytes: 64 << 10, Spill: flat})
	const n = 400
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if err := v.PushBack(p, 0, i, 4<<10); err != nil {
				t.Fatal(err)
			}
		}
		it := v.Iter(8)
		want := 0
		for {
			val, ok, err := it.Next(p, 1)
			if err != nil {
				t.Fatalf("Next at %d: %v", want, err)
			}
			if !ok {
				break
			}
			if val != want {
				t.Fatalf("element %d = %d (order broken across faults)", want, val)
			}
			want++
		}
		if want != n {
			t.Fatalf("scanned %d of %d", want, n)
		}
		if v.Faults == 0 {
			t.Error("scan recorded no faults over a 4x-RAM dataset")
		}
	})
	s.K.Run()
}

func TestTieredFaultCostsFlash(t *testing.T) {
	// A fault must cost device time: reading a spilled element is
	// slower than a resident one.
	s, flat := tierSys(t, 256<<10)
	v, _ := NewVector[int](s, "cost", Options{MaxShardBytes: 64 << 10, Spill: flat})
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 256; i++ {
			v.PushBack(p, 0, i, 4<<10)
		}
		// Resident read (tail shard).
		start := p.Now()
		v.Get(p, 0, 255)
		residentCost := p.Now().Sub(start)
		// Spilled read (cold front shard).
		if !v.shards[0].spilled {
			t.Skip("front shard unexpectedly resident")
		}
		start = p.Now()
		v.Get(p, 0, 1)
		faultCost := p.Now().Sub(start)
		if faultCost < 10*residentCost {
			t.Errorf("fault cost %v vs resident %v: flash should be much slower", faultCost, residentCost)
		}
	})
	s.K.Run()
}
