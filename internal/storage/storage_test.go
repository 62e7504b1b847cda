package storage

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func testSys(t *testing.T) *core.System {
	t.Helper()
	return core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 1 << 30},
		{Cores: 8, MemBytes: 1 << 30},
	})
}

func fastDev() DeviceConfig {
	return DeviceConfig{
		CapacityBytes: 1 << 20,
		IOPS:          0,
	}
}

func TestWriteReadDelete(t *testing.T) {
	s := testSys(t)
	sp, err := newProcletOn(s, "st", 0, fastDev())
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("client", func(p *sim.Proc) {
		if err := sp.writeObject(p, 0, "k1", "payload", 1000); err != nil {
			t.Fatalf("Write: %v", err)
		}
		v, err := sp.readObject(p, 0, "k1")
		if err != nil || v != "payload" {
			t.Errorf("Read = %v, %v", v, err)
		}
		if sp.used != 1000 || len(sp.objs) != 1 {
			t.Errorf("Used=%d NumObjects=%d", sp.used, len(sp.objs))
		}
		if err := sp.deleteObject(p, 0, "k1"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := sp.readObject(p, 0, "k1"); !errors.Is(err, ErrNoKey) {
			t.Errorf("Read deleted = %v", err)
		}
		if sp.used != 0 {
			t.Errorf("Used = %d after delete", sp.used)
		}
	})
	s.K.Run()
}

func TestCapacityEnforced(t *testing.T) {
	s := testSys(t)
	dev := fastDev()
	dev.CapacityBytes = 1000
	sp, _ := newProcletOn(s, "st", 0, dev)
	s.K.Spawn("client", func(p *sim.Proc) {
		if err := sp.writeObject(p, 0, "a", nil, 800); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := sp.writeObject(p, 0, "b", nil, 300); !errors.Is(err, ErrNoSpace) {
			t.Errorf("overcommit err = %v", err)
		}
		// Overwrite within capacity is fine.
		if err := sp.writeObject(p, 0, "a", nil, 900); err != nil {
			t.Errorf("overwrite: %v", err)
		}
	})
	s.K.Run()
}

func TestReadLatencyCharged(t *testing.T) {
	s := testSys(t)
	sp, _ := newProcletOn(s, "st", 0, fastDev())
	s.K.Spawn("client", func(p *sim.Proc) {
		sp.writeObject(p, 0, "k", nil, 1_000_000)
		start := p.Now()
		sp.readObject(p, 0, "k")
		elapsed := p.Now().Sub(start)
		// 80us latency + 1MB/2GB/s = 500us transfer = 580us min.
		if elapsed < readLatency+500*time.Microsecond {
			t.Errorf("read took %v, want >= 580us", elapsed)
		}
	})
	s.K.Run()
}

func TestIOPSCapSpacesOps(t *testing.T) {
	s := testSys(t)
	dev := fastDev()
	dev.IOPS = 1000 // 1ms spacing, well above a read's 80us
	sp, _ := newProcletOn(s, "st", 0, dev)
	s.K.Spawn("client", func(p *sim.Proc) {
		sp.writeObject(p, 0, "k", nil, 10)
		start := p.Now()
		for i := 0; i < 10; i++ {
			sp.readObject(p, 0, "k")
		}
		elapsed := p.Now().Sub(start)
		// 10 ops at 1000 IOPS >= ~9ms.
		if elapsed < 9*time.Millisecond {
			t.Errorf("10 ops took %v, want >= 9ms under 1000 IOPS cap", elapsed)
		}
	})
	s.K.Run()
}

func TestFlatSpreadsAcrossMachines(t *testing.T) {
	s := testSys(t)
	f, err := NewFlat(s, "flat", 4, fastDev())
	if err != nil {
		t.Fatal(err)
	}
	locs := map[cluster.MachineID]int{}
	for _, sp := range f.procs {
		locs[sp.pr.Location()]++
	}
	if len(locs) != 2 || locs[0] != 2 || locs[1] != 2 {
		t.Errorf("proclet spread = %v, want 2 per machine", locs)
	}
}

func TestFlatRoutesAndCombinesIOPS(t *testing.T) {
	s := testSys(t)
	dev := fastDev()
	dev.IOPS = 1000
	f, _ := NewFlat(s, "flat", 4, dev)
	s.K.Spawn("client", func(p *sim.Proc) {
		// Write 32 objects; hashing spreads them over the 4 proclets.
		for i := 0; i < 32; i++ {
			if err := f.Write(p, 0, fmt.Sprintf("key-%d", i), nil, 10); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
	})
	s.K.Run()
	if f.TotalOps() != 32 {
		t.Errorf("TotalOps = %d, want 32", f.TotalOps())
	}
	// Each proclet must have received some share of the keys, and
	// together they hold all 320 bytes.
	var used int64
	for i, sp := range f.procs {
		if len(sp.objs) == 0 {
			t.Errorf("proclet %d received no objects", i)
		}
		used += sp.used
	}
	if used != 320 {
		t.Errorf("used = %d, want 320", used)
	}
	// Aggregate IOPS: 32 sequential writes through one proclet at 1000
	// IOPS would take ~31ms; spread over 4, parallel clients would cut
	// that — here a single client serializes, so just verify routing
	// stability: every key reads back from the same proclet.
	s.K.Spawn("reader", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if _, err := f.Read(p, 1, fmt.Sprintf("key-%d", i)); err != nil {
				t.Errorf("Read key-%d: %v", i, err)
			}
		}
	})
	s.K.Run()
}

func TestFlatParallelClientsExceedSingleProcletIOPS(t *testing.T) {
	// The §3.2 claim: spreading storage proclets combines IOPS. Four
	// clients hammering four proclets finish ~4x faster than through
	// one proclet.
	run := func(nProcs int) sim.Time {
		s := testSys(t)
		dev := fastDev()
		dev.IOPS = 10_000 // 100us spacing, above a read's 80us
		f, _ := NewFlat(s, "flat", nProcs, dev)
		var done sim.Time
		var wg sim.WaitGroup
		// Preload one key per proclet-ish namespace.
		s.K.Spawn("setup", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				f.Write(p, 0, fmt.Sprintf("k-%d", i), nil, 10)
			}
			for c := 0; c < 8; c++ {
				c := c
				wg.Add(1)
				s.K.Spawn("client", func(cp *sim.Proc) {
					for i := 0; i < 100; i++ {
						f.Read(cp, 0, fmt.Sprintf("k-%d", (c*8+i)%64))
					}
					wg.Done()
				})
			}
			wg.Wait(p)
			done = p.Now()
		})
		s.K.Run()
		return done
	}
	one := run(1)
	eight := run(8)
	if float64(one) < 3*float64(eight) {
		t.Errorf("1-proclet %v vs 8-proclet %v: spreading should combine IOPS", one, eight)
	}
}
