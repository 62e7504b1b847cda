package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runExtHarvest generalizes Figure 1 to a fleet: N machines run
// high-priority apps with staggered phases, so at any instant a
// rotating subset of the fleet is idle. A fungible filler must chase
// capacity across all machines at once — the utility-computing vision
// the paper's introduction motivates.
func runExtHarvest(scale Scale) (*Result, error) {
	nMachines := 6
	cores := 8.0
	period := 24 * time.Millisecond
	horizon := sim.Time(1200 * time.Millisecond)
	measure := sim.Time(120 * time.Millisecond)
	if scale == TestScale {
		horizon = sim.Time(300 * time.Millisecond)
		measure = sim.Time(60 * time.Millisecond)
	}
	unit := 50 * time.Microsecond

	res := newResult("ext-harvest", "extension: filler harvests a 6-machine fleet with staggered idle phases")
	res.addf("setup: %d machines x %.0f cores; each runs a high-priority app busy 2/3 of a %v period,",
		nMachines, cores, period)
	res.addf("phases staggered so exactly 1/3 of the fleet (= %d machines) is idle at any instant",
		nMachines/3)

	run := func(fungible bool) (float64, int64, error) {
		machines := make([]cluster.MachineConfig, nMachines)
		for i := range machines {
			machines[i] = cluster.MachineConfig{Cores: cores, MemBytes: 16 << 30}
		}
		sys := core.NewSystem(core.DefaultConfig(), machines)
		defer sys.Close()
		// Staggered antagonists: machine i idle during the i-th third
		// of the period (busy the other two thirds).
		busy := period * 2 / 3
		for i, m := range sys.Cluster.Machines() {
			a := &workload.Antagonist{
				Machine: m, Period: period, Busy: busy,
				Offset: time.Duration(i%3) * period / 3, Cores: cores,
			}
			// Machines idle in slot (i%3)+... : offset shifts the busy
			// window; the idle window is the remaining third.
			a.Start(sys.K)
			_ = i
		}
		goodput := metrics.NewBucketSeries(time.Millisecond)
		// One closure value feeds every task, as in fig1: a completion
		// re-enqueues the same unit on its current proclet.
		var count core.TaskFn
		feed := func(cp *core.ComputeProclet) {
			cp.RunCompute(unit, count)
		}
		count = func(tc *core.TaskCtx) {
			goodput.Add(sys.K.Now(), 1)
			feed(tc.ComputeProclet())
		}
		// Filler sized to the idle capacity: 2 machines' worth.
		members := int(2 * cores)
		if fungible {
			sys.Start()
			pool, err := sys.NewPool("filler", 1, members, 1, members)
			if err != nil {
				return 0, 0, err
			}
			for _, m := range pool.Members() {
				feed(m)
				feed(m)
			}
		} else {
			// Static: the filler rents machines 0 and 1 outright.
			for i := 0; i < members; i++ {
				cp, err := core.NewComputeProcletOn(sys, fmt.Sprintf("static-%d", i), cluster.MachineID(i%2), 1)
				if err != nil {
					return 0, 0, err
				}
				sys.Sched.Pin(cp.ID())
				feed(cp)
				feed(cp)
			}
		}
		sys.K.RunUntil(horizon)
		res.EventsProcessed += sys.K.EventsProcessed()
		idealPerMs := 2 * cores * float64(time.Millisecond) / float64(unit)
		fromB := int(int64(measure) / int64(time.Millisecond))
		toB := int(int64(horizon) / int64(time.Millisecond))
		var achieved float64
		for b := fromB; b < toB; b++ {
			achieved += goodput.Bucket(b)
		}
		return 100 * achieved / (idealPerMs * float64(toB-fromB)), sys.Runtime.Migrations.Value(), nil
	}

	res.addf("%-10s %14s %12s", "mode", "goodput[%ideal]", "migrations")
	qs, qsMigs, err := run(true)
	if err != nil {
		return nil, err
	}
	res.addf("%-10s %14.1f %12d", "quicksand", qs, qsMigs)
	static, _, err := run(false)
	if err != nil {
		return nil, err
	}
	res.addf("%-10s %14.1f %12d", "static", static, 0)
	res.set("quicksand.goodput_pct", qs)
	res.set("static.goodput_pct", static)
	res.set("quicksand.migrations", float64(qsMigs))
	res.addf("shape: the fungible filler follows the idle third around the fleet; a static 2-machine")
	res.addf("rental only gets those machines' idle thirds (~33%% of ideal).")
	return res, nil
}

// runExtMemHarvest exercises the memory fast path dynamically: a
// high-priority tenant's resident set oscillates on one machine, and
// the sharded store must evacuate shards ahead of it and flow back
// after — memory harvesting in the style the paper's related work
// discusses, but without the "forcibly reclaimed, best-effort only"
// caveat, because shards migrate instead of being dropped.
func runExtMemHarvest(scale Scale) (*Result, error) {
	horizon := sim.Time(2 * time.Second)
	if scale == TestScale {
		horizon = sim.Time(800 * time.Millisecond)
	}
	res := newResult("ext-memharvest", "extension: sharded store surfs an oscillating high-priority tenant")

	sysCfg := core.DefaultConfig()
	sys := core.NewSystem(sysCfg, []cluster.MachineConfig{
		{Cores: 8, MemBytes: 2 << 30},
		{Cores: 8, MemBytes: 2 << 30},
	})
	defer sys.Close()
	maybeTrace(sys)
	sys.Start()
	v, err := sharded.NewVector[int](sys, "dataset", sharded.Options{MaxShardBytes: 64 << 20, AutoAdapt: true})
	if err != nil {
		return nil, err
	}

	// Tenant footprint: 1.5 GiB grabbed and released on machine 0
	// every 200 ms (alloc happens in slices to model ramp).
	const tenant = int64(1500 << 20)
	const slice = tenant / 10
	m0 := sys.Cluster.Machine(0)
	held := int64(0)
	grabbing := true
	loadDone := false
	sys.K.Every(0, 20*time.Millisecond, func() bool {
		if !loadDone {
			return sys.K.Now() < horizon
		}
		if grabbing {
			if m0.MemFree() >= slice && held < tenant {
				m0.AllocMem(slice)
				held += slice
			}
			if held >= tenant {
				grabbing = false
			}
		} else {
			if held > 0 {
				m0.FreeMem(slice)
				held -= slice
			}
			if held == 0 {
				grabbing = true
			}
		}
		return sys.K.Now() < horizon
	})

	readErrs, reads := 0, 0
	var loaded uint64
	sys.K.Spawn("driver", func(p *sim.Proc) {
		// Load 1.6 GiB while the tenant is low: placement spreads the
		// shards evenly, so ~0.8 GiB sits directly in the tenant's
		// path on machine 0 and must be evacuated when it ramps.
		for i := 0; i < 800; i++ {
			if err := v.PushBack(p, 0, i, 2<<20); err != nil {
				break
			}
			loaded++
		}
		loadDone = true
		// Continuous reads while the tenant oscillates.
		for p.Now() < horizon {
			for i := uint64(0); i < loaded; i += 37 {
				if _, err := v.Get(p, 1, i); err != nil {
					readErrs++
				}
				reads++
			}
			p.Sleep(10 * time.Millisecond)
		}
		sys.K.Stop()
	})
	sys.K.Run()
	res.EventsProcessed = sys.K.EventsProcessed()
	if err := maybeExportTrace("ext-memharvest", sys); err != nil {
		return nil, err
	}

	evictions := sys.Sched.MemEvictions.Value()
	res.addf("loaded %d MiB across the cluster; tenant oscillates 0<->1.5 GiB on machine 0", loaded*2)
	res.addf("reads: %d (%d failed); shard evacuations: %d; migration mean %.2f ms",
		reads, readErrs, evictions, sys.Runtime.MigrationLatency.Mean()*1000)
	res.set("reads", float64(reads))
	res.set("read_errs", float64(readErrs))
	res.set("evictions", float64(evictions))
	res.set("loaded_mib", float64(loaded*2))
	res.addf("shape: unlike harvesting systems that drop best-effort state on reclaim, shards migrate")
	res.addf("ahead of the tenant and every read succeeds.")
	return res, nil
}
