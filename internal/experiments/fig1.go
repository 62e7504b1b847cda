package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runpar"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig1Cfg parameterizes the motivating experiment: two machines whose
// high-priority apps alternate between consuming all cores and none
// every 10 ms, anti-phased, with a best-effort filler trying to
// harvest the idle windows.
type fig1Cfg struct {
	cores      float64
	unit       time.Duration // one filler work unit of CPU
	period     time.Duration // antagonist full period (busy = period/2)
	horizon    sim.Time
	measure    sim.Time // stats window start (skip ramp-up)
	members    int      // filler compute proclets (Quicksand mode)
	workersPer int      // worker threads per filler proclet
	coarseGB   int64    // coarse-baseline state size
}

func fig1Config(scale Scale) fig1Cfg {
	cfg := fig1Cfg{
		cores:      8,
		unit:       50 * time.Microsecond,
		period:     20 * time.Millisecond,
		horizon:    sim.Time(1000 * time.Millisecond),
		measure:    sim.Time(100 * time.Millisecond),
		members:    8,
		workersPer: 1,
		coarseGB:   2 << 30,
	}
	if scale == TestScale {
		cfg.horizon = sim.Time(200 * time.Millisecond)
		cfg.measure = sim.Time(40 * time.Millisecond)
	}
	return cfg
}

// fig1Stats is one mode's outcome.
type fig1Stats struct {
	goodputPct float64 // achieved / ideal over the stats window
	migrations int64
	migMeanMs  float64
	migMaxMs   float64
	reactMeanM float64 // mean ms from antagonist flip to >50% goodput
	perMachine [2]*metrics.BucketSeries
	events     uint64   // kernel events executed in this mode's run
	trace      []string // rendered control-plane trace for this mode
}

func fig1Run(cfg fig1Cfg, mode string) (fig1Stats, error) {
	return fig1RunFull(cfg, mode, nil, (*core.ComputeProclet).RunCompute)
}

// fig1RunWith runs the Quicksand mode with a mutated system config
// (scheduler ablations).
func fig1RunWith(cfg fig1Cfg, mutate func(*core.Config)) (fig1Stats, error) {
	return fig1RunFull(cfg, "quicksand", mutate, (*core.ComputeProclet).RunCompute)
}

// fig1RunFull runs one mode. enqueue is how a filler unit — work of
// compute, then a function that cannot block — reaches a compute proclet:
// RunCompute, except in the test that holds RunCompute to its blocking twin.
func fig1RunFull(cfg fig1Cfg, mode string, mutate func(*core.Config),
	enqueue func(cp *core.ComputeProclet, work time.Duration, fn core.TaskFn)) (fig1Stats, error) {
	sysCfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&sysCfg)
	}
	machines := []cluster.MachineConfig{
		{Cores: cfg.cores, MemBytes: 32 << 30},
		{Cores: cfg.cores, MemBytes: 32 << 30},
	}
	sys := core.NewSystem(sysCfg, machines)
	defer sys.Close()
	if mode == "quicksand" {
		maybeTrace(sys)
	}
	k := sys.K

	// Anti-phased antagonists: m0 busy in the first half-period, m1 in
	// the second.
	busy := cfg.period / 2
	a0 := &workload.Antagonist{Machine: sys.Cluster.Machine(0), Period: cfg.period, Busy: busy, Cores: cfg.cores}
	a1 := &workload.Antagonist{Machine: sys.Cluster.Machine(1), Period: cfg.period, Busy: busy,
		Offset: busy, Cores: cfg.cores}
	a0.Start(k)
	a1.Start(k)

	var st fig1Stats
	for i := range st.perMachine {
		st.perMachine[i] = metrics.NewBucketSeries(time.Millisecond)
	}

	// One closure value feeds every task: each completion re-enqueues
	// the same unit on its current proclet, so the steady-state filler
	// loop allocates no closures at all. Nothing after the compute can
	// block, so the unit is a RunCompute and no worker is switched in for it.
	var count core.TaskFn
	feed := func(cp *core.ComputeProclet) {
		enqueue(cp, cfg.unit, count)
	}
	count = func(tc *core.TaskCtx) {
		st.perMachine[tc.Machine()].Add(k.Now(), 1)
		feed(tc.ComputeProclet())
	}

	switch mode {
	case "quicksand":
		sys.Start()
		pool, err := sys.NewPool("filler", cfg.workersPer, cfg.members, 1, cfg.members)
		if err != nil {
			return st, err
		}
		for _, m := range pool.Members() {
			for w := 0; w < 2*cfg.workersPer; w++ {
				feed(m)
			}
		}
	case "pinned":
		// Classic cloud: the filler rents one machine and stays there.
		for i := 0; i < cfg.members; i++ {
			cp, err := core.NewComputeProcletOn(sys, fmt.Sprintf("pinned-%d", i), 0, cfg.workersPer)
			if err != nil {
				return st, err
			}
			sys.Sched.Pin(cp.ID())
			for w := 0; w < 2*cfg.workersPer; w++ {
				feed(cp)
			}
		}
	case "coarse":
		// VM-grained filler: monolithic state, slow monitor.
		ca, err := baseline.NewCoarseApp(sys, "vm-filler", 0, cfg.members, cfg.coarseGB, 250*time.Millisecond)
		if err != nil {
			return st, err
		}
		ca.StartMonitor()
		for i := 0; i < 2*cfg.members; i++ {
			feed(ca.Compute())
		}
	default:
		return st, fmt.Errorf("fig1: unknown mode %q", mode)
	}

	k.RunUntil(cfg.horizon)
	a0.Stop()
	a1.Stop()

	// Ideal: exactly one machine's worth of cores is free at any time.
	unitsPerMsIdeal := cfg.cores * float64(time.Millisecond) / float64(cfg.unit)
	fromB := int(int64(cfg.measure) / int64(time.Millisecond))
	toB := int(int64(cfg.horizon) / int64(time.Millisecond))
	var achieved float64
	for b := fromB; b < toB; b++ {
		achieved += st.perMachine[0].Bucket(b) + st.perMachine[1].Bucket(b)
	}
	st.goodputPct = 100 * achieved / (unitsPerMsIdeal * float64(toB-fromB))
	st.migrations = sys.Runtime.Migrations.Value()
	st.migMeanMs = sys.Runtime.MigrationLatency.Mean() * 1000
	st.migMaxMs = sys.Runtime.MigrationLatency.Max() * 1000

	// Reaction time: after each antagonist flip, how long until the
	// newly idle machine's goodput exceeds half its full rate.
	halfRate := unitsPerMsIdeal / 2
	periodMs := int(cfg.period / time.Millisecond)
	halfMs := periodMs / 2
	var reacts []float64
	for t := fromB - fromB%halfMs; t+halfMs <= toB; t += halfMs {
		if t <= fromB {
			continue
		}
		k := t / halfMs // flip index: odd -> m0 became idle
		idle := 1
		if k%2 == 1 {
			idle = 0
		}
		found := -1
		for b := t; b < t+halfMs; b++ {
			if st.perMachine[idle].Bucket(b) >= halfRate {
				found = b - t
				break
			}
		}
		if found >= 0 {
			reacts = append(reacts, float64(found))
		} else {
			reacts = append(reacts, float64(halfMs)) // never recovered
		}
	}
	if len(reacts) > 0 {
		var sum float64
		for _, r := range reacts {
			sum += r
		}
		st.reactMeanM = sum / float64(len(reacts))
	}
	st.events = k.EventsProcessed()
	st.trace = sys.Trace.Lines()
	if mode == "quicksand" {
		if err := maybeExportTrace("fig1", sys); err != nil {
			return st, err
		}
	}
	return st, nil
}

func runFig1(scale Scale) (*Result, error) {
	cfg := fig1Config(scale)
	res := newResult("fig1", "Figure 1: millisecond-scale filler migration harvests anti-phased idle CPU")
	res.addf("setup: 2 machines x %.0f cores; high-priority app busy %v of every %v, anti-phased;",
		cfg.cores, cfg.period/2, cfg.period)
	res.addf("filler: %d compute proclets x 1 worker, %v work units; horizon %v",
		cfg.members, cfg.unit, cfg.horizon)
	res.addf("%-10s %14s %12s %14s %14s %12s", "mode", "goodput[%ideal]", "migrations", "mig mean[ms]", "mig max[ms]", "react[ms]")
	// The three modes are independent simulations on independent
	// kernels; run them across host cores and merge in mode order.
	modes := []string{"quicksand", "pinned", "coarse"}
	stats, err := runpar.MapErr(len(modes), parallelism, func(i int) (fig1Stats, error) {
		return fig1Run(cfg, modes[i])
	})
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		st := stats[i]
		res.addf("%-10s %14.1f %12d %14.3f %14.3f %12.2f",
			mode, st.goodputPct, st.migrations, st.migMeanMs, st.migMaxMs, st.reactMeanM)
		res.set(mode+".goodput_pct", st.goodputPct)
		res.set(mode+".migrations", float64(st.migrations))
		res.set(mode+".mig_mean_ms", st.migMeanMs)
		res.set(mode+".react_ms", st.reactMeanM)
		res.EventsProcessed += st.events
		res.Trace = append(res.Trace, st.trace...)
		// Plot-ready series: per-machine goodput in units/ms, 1 ms
		// buckets — the data behind the paper's Figure 1 plot.
		nB := int(int64(cfg.horizon) / int64(time.Millisecond))
		if len(res.SeriesTime) == 0 {
			for b := 0; b < nB; b++ {
				res.SeriesTime = append(res.SeriesTime, float64(b))
			}
		}
		for m := 0; m < 2; m++ {
			col := make([]float64, nB)
			for b := 0; b < nB; b++ {
				col[b] = st.perMachine[m].Bucket(b)
			}
			res.Series[fmt.Sprintf("%s_m%d_goodput", mode, m)] = col
		}
	}
	res.addf("paper shape: Quicksand migrates in <1 ms and fills both machines' gaps (~2x pinned goodput);")
	res.addf("coarse-grained (VM-style) migration cannot chase 10 ms windows.")
	return res, nil
}
