package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
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

// fig1Stats is one run's outcome. A memoized one is shared by every
// caller of its spec, so its series and log are read-only.
type fig1Stats struct {
	goodputPct float64 // achieved / ideal over the stats window
	migrations int64
	migMeanMs  float64
	migMaxMs   float64
	reactMeanM float64 // mean ms from antagonist flip to >50% goodput
	perMachine [2]metrics.BucketSeries
	trace      *obs.Log // control-plane trace, rendered only where reported
}

// fig1Spec is one fig1-family run: one of fig1's own modes, or the
// Quicksand mode under a scheduler ablation's system config (abl-sched,
// abl-granularity, abl-reactor). traced is fig1's own quicksand run
// when a trace directory is set, exported as fig1.trace.json.
type fig1Spec struct {
	cfg    fig1Cfg
	mode   string
	sys    core.Config
	traced bool
}

func (s fig1Spec) run() (any, uint64, error) {
	return fig1RunFull(s.cfg, s.mode, s.sys, s.traced, (*core.ComputeProclet).RunCompute)
}

// fig1With is the untraced Quicksand-mode run of cfg on the default
// system config as mutate changes it (the scheduler ablations).
func fig1With(cfg fig1Cfg, mutate func(*core.Config)) fig1Spec {
	sys := core.DefaultConfig()
	mutate(&sys)
	return fig1Spec{cfg: cfg, mode: "quicksand", sys: sys}
}

// fig1RunFull runs one mode on a system built from sysCfg; traced
// records spans and exports them as fig1.trace.json. enqueue is how a
// filler unit — work of compute, then a function that cannot block —
// reaches a compute proclet: RunCompute, except in the test that holds
// RunCompute to its blocking twin.
func fig1RunFull(cfg fig1Cfg, mode string, sysCfg core.Config, traced bool,
	enqueue func(cp *core.ComputeProclet, work time.Duration, fn core.TaskFn)) (fig1Stats, uint64, error) {
	machines := []cluster.MachineConfig{
		{Cores: cfg.cores, MemBytes: 32 << 30},
		{Cores: cfg.cores, MemBytes: 32 << 30},
	}
	sys := core.NewSystem(sysCfg, machines)
	defer sys.Close()
	if traced {
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
		st.perMachine[i] = metrics.NewBucketSeries(time.Millisecond, cfg.horizon)
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
		pool, err := sys.NewPool("filler", cfg.workersPer, cfg.members, cfg.members)
		if err != nil {
			return st, 0, err
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
				return st, 0, err
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
			return st, 0, err
		}
		ca.StartMonitor()
		for i := 0; i < 2*cfg.members; i++ {
			feed(ca.Compute())
		}
	default:
		return st, 0, fmt.Errorf("fig1: unknown mode %q", mode)
	}

	k.RunUntil(cfg.horizon)
	a0.Stop()
	a1.Stop()

	// Ideal: exactly one machine's worth of cores is free at any time.
	unitsPerMsIdeal := cfg.cores * float64(time.Millisecond) / float64(cfg.unit)
	fromB := int(int64(cfg.measure) / int64(time.Millisecond))
	toB := int(int64(cfg.horizon) / int64(time.Millisecond))
	achieved := float64(st.perMachine[0].Sum(fromB, toB) + st.perMachine[1].Sum(fromB, toB))
	st.goodputPct = 100 * achieved / (unitsPerMsIdeal * float64(toB-fromB))
	st.migrations = sys.Runtime.Migrations.Value()
	st.migMeanMs = sys.Runtime.MigrationLatency.Mean() * 1000
	st.migMaxMs = sys.Runtime.MigrationLatency.Max() * 1000

	// Reaction time: after each antagonist flip, how long until the
	// newly idle machine's goodput exceeds half its full rate.
	halfRate := unitsPerMsIdeal / 2
	periodMs := int(cfg.period / time.Millisecond)
	halfMs := periodMs / 2
	var reactSum, flips int
	for t := fromB - fromB%halfMs + halfMs; t+halfMs <= toB; t += halfMs {
		idle := 1 - t/halfMs%2 // flip index t/halfMs: odd -> m0 became idle
		react := halfMs        // never recovered
		if b := st.perMachine[idle].First(t, t+halfMs, halfRate); b >= 0 {
			react = b - t
		}
		reactSum += react
		flips++
	}
	if flips > 0 {
		st.reactMeanM = float64(reactSum) / float64(flips)
	}
	st.trace = sys.Trace
	if traced {
		if err := maybeExportTrace("fig1", sys); err != nil {
			return st, 0, err
		}
	}
	return st, k.EventsProcessed(), nil
}

func runFig1(scale Scale) (*Result, error) {
	cfg := fig1Config(scale)
	res := newResult("fig1")
	res.addf("setup: 2 machines x %.0f cores; high-priority app busy %v of every %v, anti-phased;",
		cfg.cores, cfg.period/2, cfg.period)
	res.addf("filler: %d compute proclets x 1 worker, %v work units; horizon %v",
		cfg.members, cfg.unit, cfg.horizon)
	res.addf("%-10s %14s %12s %14s %14s %12s", "mode", "goodput[%ideal]", "migrations", "mig mean[ms]", "mig max[ms]", "react[ms]")
	modes := []string{"quicksand", "pinned", "coarse"}
	specs := make([]fig1Spec, len(modes))
	for i, mode := range modes {
		specs[i] = fig1Spec{cfg: cfg, mode: mode, sys: core.DefaultConfig(), traced: mode == "quicksand" && traceDir != ""}
	}
	stats, err := simulate[fig1Stats](res, specs)
	if err != nil {
		return nil, err
	}
	// Plot-ready series: per-machine goodput in units/ms, 1 ms buckets —
	// the data behind the paper's Figure 1 plot.
	plot := map[string]*metrics.BucketSeries{}
	for i, mode := range modes {
		st := &stats[i]
		res.addf("%-10s %14.1f %12d %14.3f %14.3f %12.2f",
			mode, st.goodputPct, st.migrations, st.migMeanMs, st.migMaxMs, st.reactMeanM)
		res.set(mode+".goodput_pct", st.goodputPct)
		res.set(mode+".migrations", float64(st.migrations))
		res.set(mode+".mig_mean_ms", st.migMeanMs)
		res.set(mode+".react_ms", st.reactMeanM)
		res.Traces = append(res.Traces, st.trace)
		plot[mode+"_m0_goodput"], plot[mode+"_m1_goodput"] = &st.perMachine[0], &st.perMachine[1]
	}
	res.plotBuckets(time.Millisecond, int(int64(cfg.horizon)/int64(time.Millisecond)), plot)
	res.addf("paper shape: Quicksand migrates in <1 ms and fills both machines' gaps (~2x pinned goodput);")
	res.addf("coarse-grained (VM-style) migration cannot chase 10 ms windows.")
	return res, nil
}
