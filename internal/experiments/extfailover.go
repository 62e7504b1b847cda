package experiments

// ext-failover: crash recovery without data loss via replicated memory
// proclets. ext-chaos rebuilds lost store contents from an out-of-band
// durable source; this extension removes that crutch: stores carry
// their own durability through primary/backup replication (writes
// group-commit log records to anti-affine backups before acking),
// failure detection is heartbeat-driven (no oracle crash knowledge),
// and ownership is lease-based so promotion is safe under partitions.
// Four identically-seeded runs — RF in {1, 2} x {crash, no-fault} —
// measure what replication costs when nothing fails and what it saves
// when a machine dies: goodput under the crash, failover latency per
// affected store (crash instant to first post-crash ack), and acked
// objects lost (zero at RF=2, positive at RF=1 where restored stores
// come back empty).

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
)

// failoverCfg parameterizes one ext-failover run.
type failoverCfg struct {
	machines []cluster.MachineConfig
	stores   int           // memory proclets, round-robin over machines 1..N-1
	clients  int           // open-loop writers on machine 0
	opBytes  int64         // payload per put
	think    time.Duration // writer think time between puts
	horizon  sim.Time
	bucket   time.Duration // goodput histogram bucket
	crashAt  sim.Time
	restart  sim.Time
}

func failoverConfig(scale Scale) failoverCfg {
	const MiB = 1 << 20
	cfg := failoverCfg{
		stores:  6,
		clients: 12,
		opBytes: 1 << 10,
		think:   100 * time.Microsecond,
		horizon: sim.Time(120 * time.Millisecond),
		bucket:  5 * time.Millisecond,
		machines: []cluster.MachineConfig{
			{Cores: 4, MemBytes: 128 * MiB},
			{Cores: 4, MemBytes: 128 * MiB},
			{Cores: 4, MemBytes: 128 * MiB},
			{Cores: 4, MemBytes: 128 * MiB},
		},
	}
	if scale == FullScale {
		cfg.clients = 24
		cfg.opBytes = 4 << 10
		cfg.horizon = sim.Time(400 * time.Millisecond)
		cfg.bucket = 10 * time.Millisecond
		for i := range cfg.machines {
			cfg.machines[i].Cores = 8
			cfg.machines[i].MemBytes = 512 * MiB
		}
	}
	cfg.crashAt = sim.Time(float64(cfg.horizon) * 0.30)
	cfg.restart = sim.Time(float64(cfg.horizon) * 0.70)
	return cfg
}

// failoverOutcome is one run's measurements.
type failoverOutcome struct {
	ops, failed, lost int64
	promotions        int64
	deposes           int64
	resyncs           int64
	confirms          int64
	replRecords       int64
	goodput           metrics.BucketSeries
	failover          metrics.Summary // per affected store: crash -> first post-crash ack
	trace             *obs.Log        // rendered only for the reported variant
}

// failoverSpec is one ext-failover run: the open-loop write workload at
// replication factor rf, crashing machine 1 mid-run when inject. The
// heartbeat detector and lease plane are installed in every run —
// recovery is detector-driven, never oracle-driven. traced is the RF=2
// crash run when a trace directory is set, exported as
// ext-failover.trace.json.
type failoverSpec struct {
	scale          Scale
	rf             int
	inject, traced bool
}

func (s failoverSpec) run() (any, uint64, error) {
	cfg, rf, inject := failoverConfig(s.scale), s.rf, s.inject
	var out failoverOutcome
	sysCfg := core.DefaultConfig()
	sysCfg.Seed = seeded(17)
	sys := core.NewSystem(sysCfg, cfg.machines)
	defer sys.Close()
	if s.traced {
		maybeTrace(sys)
	}
	sys.Start()

	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	sys.AttachInjector(in)
	rm := sys.EnableReplicationPlane(replication.Config{}, 0)

	// Stores on machines 1..N-1; machine 0 hosts the monitor and the
	// clients and never crashes.
	stores, err := fleet.PlaceStores(sys, "fstore-%d", cfg.stores, 1, rf)
	if err != nil {
		return out, 0, err
	}
	ledger := fleet.NewLedger(stores, cfg.opBytes)
	affected := make([]bool, cfg.stores) // primary on the crashing machine
	for i, mp := range stores {
		affected[i] = mp.Location() == 1
	}

	if inject {
		in.Install(fault.Schedule{
			{At: cfg.crashAt, Op: fault.OpCrash, A: 1},
			{At: cfg.restart, Op: fault.OpRestart, A: 1},
		})
	}

	out.goodput = metrics.NewBucketSeries(cfg.bucket, cfg.horizon)
	firstAck := make([]sim.Time, cfg.stores) // first ack at/after the crash

	var wg sim.WaitGroup
	for w := 0; w < cfg.clients; w++ {
		wg.Add(1)
		sys.K.Spawn(fmt.Sprintf("fo-client-%d", w), func(p *sim.Proc) {
			defer wg.Done()
			for op := 0; p.Now() < cfg.horizon; op++ {
				idx := (w + op) % cfg.stores
				key := uint64(w)<<32 | uint64(op)
				if err := ledger.Put(p, 0, idx, key); err == nil {
					out.ops++
					now := p.Now()
					out.goodput.Add(now, 1)
					if inject && now >= cfg.crashAt && firstAck[idx] == 0 {
						firstAck[idx] = now
					}
				} else {
					out.failed++
				}
				p.Sleep(cfg.think)
			}
		})
	}

	completed := false
	sys.K.Spawn("fo-driver", func(p *sim.Proc) {
		wg.Wait(p)
		// Every acked write must be readable at the end of the run;
		// there is no rebuilder, so whatever a crash destroyed at RF=1
		// stays lost and is counted here.
		out.lost = ledger.Verify(p, 1)
		completed = true
		sys.K.Stop()
	})
	sys.K.Run()
	if !completed {
		return out, 0, fmt.Errorf("ext-failover: run did not complete (workload wedged)")
	}

	if inject {
		for i := range stores {
			if !affected[i] {
				continue
			}
			at := firstAck[i]
			if at == 0 {
				at = cfg.horizon // censored: no ack before the horizon
			}
			out.failover.Record(int64(at - cfg.crashAt))
		}
	}
	out.promotions = rm.Promotions.Value()
	out.deposes = rm.Deposes.Value()
	out.resyncs = rm.Resyncs.Value()
	out.confirms = rm.Detector().Confirms.Value()
	out.replRecords = rm.ReplRecords.Value()
	out.trace = sys.Trace
	if s.traced {
		if err := maybeExportTrace("ext-failover", sys); err != nil {
			return out, 0, err
		}
	}
	return out, sys.K.EventsProcessed(), nil
}

func runExtFailover(scale Scale) (*Result, error) {
	cfg := failoverConfig(scale)
	res := newResult("ext-failover")
	res.addf("setup: %d machines, %d stores on m1..m%d, %d writers on m0; crash m1 @%v, restart @%v",
		len(cfg.machines), cfg.stores, len(cfg.machines)-1, cfg.clients, cfg.crashAt, cfg.restart)
	res.addf("durability plane: heartbeat detector + leases on every run; no rebuilder anywhere")

	// {RF=2, RF=1} x {crash, no-fault}.
	outs, err := simulate[failoverOutcome](res, []failoverSpec{
		{scale, 2, true, traceDir != ""}, {scale, 2, false, false}, {scale, 1, true, false}, {scale, 1, false, false}})
	if err != nil {
		return nil, err
	}
	rf2, rf2Base, rf1, rf1Base := outs[0], outs[1], outs[2], outs[3]
	res.Traces = []*obs.Log{rf2.trace}

	foMean, foMax := rf2.failover.Mean()/1e6, float64(rf2.failover.Max())/1e6
	overhead := 0.0
	if rf1Base.ops > 0 {
		overhead = 1 - float64(rf2Base.ops)/float64(rf1Base.ops)
	}

	res.plotBuckets(cfg.bucket, rf2.goodput.Len(), map[string]*metrics.BucketSeries{
		"goodput_rf2": &rf2.goodput, "goodput_rf1": &rf1.goodput})

	res.addf("%-24s %10s %10s %10s %10s", "", "rf2", "rf2-base", "rf1", "rf1-base")
	res.addf("%-24s %10d %10d %10d %10d", "ops acked", rf2.ops, rf2Base.ops, rf1.ops, rf1Base.ops)
	res.addf("%-24s %10d %10d %10d %10d", "ops failed", rf2.failed, rf2Base.failed, rf1.failed, rf1Base.failed)
	res.addf("%-24s %10d %10d %10d %10d", "acked objects lost", rf2.lost, rf2Base.lost, rf1.lost, rf1Base.lost)
	res.addf("detector: %d confirms; rf2 control plane: %d promotions, %d deposes, %d resyncs",
		rf2.confirms, rf2.promotions, rf2.deposes, rf2.resyncs)
	res.addf("failover (crash -> first post-crash ack, %d affected stores): mean %.2f ms, max %.2f ms",
		rf2.failover.Count(), foMean, foMax)
	res.addf("replication: %d log records shipped; steady-state overhead %.1f%% of RF=1 goodput",
		rf2.replRecords+rf2Base.replRecords, 100*overhead)
	res.addf("paper shape: at RF=2 every acked write survives the crash (lost=0) with failover bounded")
	res.addf("by the detector's confirm window; RF=1 pays no overhead but loses the crashed stores.")

	res.set("ops_rf2", float64(rf2.ops))
	res.set("ops_rf1", float64(rf1.ops))
	res.set("ops_nofault_rf2", float64(rf2Base.ops))
	res.set("ops_nofault_rf1", float64(rf1Base.ops))
	res.set("failed_rf2", float64(rf2.failed))
	res.set("failed_rf1", float64(rf1.failed))
	res.set("lost_rf2", float64(rf2.lost))
	res.set("lost_rf1", float64(rf1.lost))
	res.set("promotions", float64(rf2.promotions))
	res.set("deposes", float64(rf2.deposes))
	res.set("resyncs", float64(rf2.resyncs))
	res.set("confirms", float64(rf2.confirms))
	res.set("failover_ms_mean", foMean)
	res.set("failover_ms_max", foMax)
	res.set("overhead_frac", overhead)
	res.set("repl_records", float64(rf2.replRecords))
	return res, nil
}
