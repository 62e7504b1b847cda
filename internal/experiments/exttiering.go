package experiments

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/storage"
)

// tieringSpec is one ext-tiering scan: n 1 MiB elements pushed into a
// tiered vector on two machines of ramPer bytes each, then one cold
// full scan, or hotRounds scans of the resident tail quarter.
type tieringSpec struct {
	ramPer       int64
	n, hotRounds int
}

// tieringOut is one ext-tiering scan's outcome.
type tieringOut struct {
	msPerElem      float64
	spills, faults int64
}

func (s tieringSpec) run() (any, uint64, error) {
	var out tieringOut
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: s.ramPer},
		{Cores: 8, MemBytes: s.ramPer},
	})
	defer sys.Close()
	dev := storage.DeviceConfig{
		CapacityBytes: 16 << 30,
	}
	flat, err := storage.NewFlat(sys, "flash", 4, dev)
	if err != nil {
		return out, 0, err
	}
	v, err := newTieredVector(sys, flat)
	if err != nil {
		return out, 0, err
	}
	var runErr error
	sys.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < s.n; i++ {
			if perr := v.PushBack(p, 0, i, 1<<20); perr != nil {
				runErr = perr
				return
			}
		}
		// Cold full scan, or a hot working set: re-scan the resident
		// tail range.
		start := p.Now()
		count := 0
		for r := 0; r < max(1, s.hotRounds); r++ {
			var it *sharded.VecIter[int]
			if s.hotRounds > 0 {
				it = v.IterRange(uint64(s.n)-uint64(s.n)/4, uint64(s.n), 16)
			} else {
				it = v.Iter(16)
			}
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
		out.msPerElem = p.Now().Sub(start).Seconds() * 1000 / float64(count)
	})
	sys.K.Run()
	out.spills, out.faults = v.Spills, v.Faults
	return out, sys.K.EventsProcessed(), runErr
}

// runExtTiering demonstrates §5's storage-class direction: a sharded
// vector holding a dataset twice the cluster's RAM, with cold shards
// spilled to a flash tier and faulted back on access. It measures scan
// throughput for a RAM-resident dataset, a 2x-RAM tiered dataset, and
// the skew case where a hot working set stays resident.
func runExtTiering(scale Scale) (*Result, error) {
	// 2 machines x 128 MiB RAM; flash tier of 4 proclets.
	ramPer := int64(128 << 20)
	nFits := 160 // ~160 MiB: fits RAM comfortably
	nBig := 480  // ~480 MiB: ~2x RAM
	hotRounds := 5
	if scale == TestScale {
		nFits, nBig, hotRounds = 80, 240, 3
		ramPer = 64 << 20
	}

	res := newResult("ext-tiering")
	outs, err := simulate[tieringOut](res, []tieringSpec{{ramPer, nFits, 0}, {ramPer, nBig, 0}, {ramPer, nBig, hotRounds}})
	if err != nil {
		return nil, err
	}
	inRAM, tiered, hot := outs[0], outs[1], outs[2]
	res.addf("%-28s %16s %8s %8s", "scenario", "scan[ms/elem]", "spills", "faults")
	res.addf("%-28s %16.3f %8d %8d", "fits in RAM", inRAM.msPerElem, inRAM.spills, inRAM.faults)
	res.addf("%-28s %16.3f %8d %8d", "2x RAM, cold full scan", tiered.msPerElem, tiered.spills, tiered.faults)
	res.addf("%-28s %16.3f %8d %8d", "2x RAM, hot working set", hot.msPerElem, hot.spills, hot.faults)
	res.set("inram_ms_per_elem", inRAM.msPerElem)
	res.set("tiered_ms_per_elem", tiered.msPerElem)
	res.set("hot_ms_per_elem", hot.msPerElem)
	res.set("tiered_faults", float64(tiered.faults))
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
