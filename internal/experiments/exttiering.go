package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/storage"
)

// runExtTiering demonstrates §5's storage-class direction: a sharded
// vector holding a dataset twice the cluster's RAM, with cold shards
// spilled to a flash tier and faulted back on access. It measures scan
// throughput for a RAM-resident dataset, a 2x-RAM tiered dataset, and
// the skew case where a hot working set stays resident.
func runExtTiering(scale Scale) (*Result, error) {
	// 2 machines x 128 MiB RAM; flash tier of 4 proclets.
	ramPer := int64(128 << 20)
	elemBytes := int64(1 << 20)
	nFits := 160 // ~160 MiB: fits RAM comfortably
	nBig := 480  // ~480 MiB: ~2x RAM
	hotRounds := 5
	if scale == TestScale {
		nFits, nBig, hotRounds = 80, 240, 3
		ramPer = 64 << 20
	}

	res := newResult("ext-tiering", "extension: flash as slow cheap memory for sharded data")

	run := func(n int, hot bool) (scanMsPerElem float64, spills, faults int64, err error) {
		sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
			{Cores: 8, MemBytes: ramPer},
			{Cores: 8, MemBytes: ramPer},
		})
		defer sys.Close()
		dev := storage.DeviceConfig{
			CapacityBytes: 16 << 30,
			ReadLatency:   80 * time.Microsecond,
			WriteLatency:  20 * time.Microsecond,
			Bandwidth:     2_000_000_000,
		}
		flat, ferr := storage.NewFlat(sys, "flash", 4, dev)
		if ferr != nil {
			return 0, 0, 0, ferr
		}
		v, verr := newTieredVector(sys, flat)
		if verr != nil {
			return 0, 0, 0, verr
		}
		var runErr error
		sys.K.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if perr := v.PushBack(p, 0, i, elemBytes); perr != nil {
					runErr = perr
					return
				}
			}
			if hot {
				// Hot working set: re-scan the resident tail range.
				lo := uint64(n) - uint64(n)/4
				start := p.Now()
				count := 0
				for r := 0; r < hotRounds; r++ {
					it := v.IterRange(lo, uint64(n), 16)
					for {
						_, ok, ierr := it.Next(p, 1)
						if ierr != nil {
							runErr = ierr
							return
						}
						if !ok {
							break
						}
						count++
					}
				}
				scanMsPerElem = p.Now().Sub(start).Seconds() * 1000 / float64(count)
				return
			}
			// Cold full scan.
			start := p.Now()
			it := v.Iter(16)
			count := 0
			for {
				_, ok, ierr := it.Next(p, 1)
				if ierr != nil {
					runErr = ierr
					return
				}
				if !ok {
					break
				}
				count++
			}
			scanMsPerElem = p.Now().Sub(start).Seconds() * 1000 / float64(count)
		})
		sys.K.Run()
		res.EventsProcessed += sys.K.EventsProcessed()
		return scanMsPerElem, v.Spills, v.Faults, runErr
	}

	res.addf("%-28s %16s %8s %8s", "scenario", "scan[ms/elem]", "spills", "faults")
	inRAM, sp0, f0, err := run(nFits, false)
	if err != nil {
		return nil, err
	}
	res.addf("%-28s %16.3f %8d %8d", "fits in RAM", inRAM, sp0, f0)
	tiered, sp1, f1, err := run(nBig, false)
	if err != nil {
		return nil, err
	}
	res.addf("%-28s %16.3f %8d %8d", "2x RAM, cold full scan", tiered, sp1, f1)
	hot, sp2, f2, err := run(nBig, true)
	if err != nil {
		return nil, err
	}
	res.addf("%-28s %16.3f %8d %8d", "2x RAM, hot working set", hot, sp2, f2)
	res.set("inram_ms_per_elem", inRAM)
	res.set("tiered_ms_per_elem", tiered)
	res.set("hot_ms_per_elem", hot)
	res.set("tiered_faults", float64(f1))
	res.addf("shape: the 2x-RAM dataset is usable at a flash-bound scan rate; once the working set fits")
	res.addf("in RAM, access returns to memory speed — flash as slow cheap memory, not a cliff.")
	return res, nil
}

// newTieredVector builds the experiment's vector.
func newTieredVector(sys *core.System, flat *storage.Flat) (*sharded.Vector[int], error) {
	return sharded.NewVector[int](sys, "tiered", sharded.Options{
		MaxShardBytes: 16 << 20,
		Spill:         flat,
	})
}
