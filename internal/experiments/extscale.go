package experiments

// ext-scale: a partitioned fleet two orders of magnitude beyond the
// other experiments. Every other experiment drives a handful of
// machines on one sequential kernel; this one shards a 1,000-machine
// fleet (8 shards x 125 machines at full scale) across a
// sim.ParKernel, with per-shard Quicksand systems stitched together by
// a simnet.Partition for cross-shard RPC. The workload mixes
// shard-local store traffic with cross-shard gateway reads, and shard
// 0 additionally rides out a crash/restart of one of its machines
// (granular re-placement plus rebuild, as in ext-chaos — now inside a
// partitioned run).
//
// The shards are linked, so they run window by window in shard order on
// one host goroutine, whatever -par says (DESIGN.md §11); the golden
// table holds the run at -par 1 and 4.

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// scaleCfg parameterizes the partitioned fleet.
type scaleCfg struct {
	shards     int
	perShard   int // machines per shard
	stores     int // memory proclets per shard, machines 1..perShard-1
	clients    int // closed-loop drivers per shard, machine 0
	opBytes    int64
	crossEvery int // every Nth op also performs a cross-shard gateway read
	sample     int // verify every Nth acked key on the crash shard
	horizon    sim.Time
	slack      sim.Time // drain window after the horizon
}

func scaleConfig(scale Scale) scaleCfg {
	const MiB = 1 << 20
	cfg := scaleCfg{
		shards:     8,
		perShard:   3,
		stores:     4,
		clients:    2,
		opBytes:    1 << 10,
		crossEvery: 4,
		sample:     4,
		horizon:    sim.Time(8 * time.Millisecond),
		slack:      sim.Time(8 * time.Millisecond),
	}
	if scale == FullScale {
		cfg.perShard = 125 // 8 x 125 = 1,000 machines
		cfg.stores = 16
		cfg.clients = 4
		cfg.crossEvery = 8
		cfg.horizon = sim.Time(20 * time.Millisecond)
		cfg.slack = sim.Time(20 * time.Millisecond)
	}
	return cfg
}

// scaleDet is one run's totals over its shards and its merged trace.
type scaleDet struct {
	events                             uint64
	ops, failed, crossOps, crossFailed int64
	lost, crashes, recoveries          int64
	windows, crossMsgs                 uint64
	trace                              *obs.Log
}

// runScaleOnce builds the partitioned fleet and runs it.
func runScaleOnce(cfg scaleCfg) (scaleDet, error) {
	fl := fleet.New(seeded(29), cfg.shards, cfg.perShard, cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20})
	defer fl.Close()
	net := fl.Partition() // the cross-shard gateway: this fleet runs windowed

	shards := make([]*fleet.Shard, cfg.shards)
	for s, sys := range fl.Shards {
		sys.Start()
		st, err := fl.NewShard(s, cfg.stores, 1, cfg.opBytes)
		if err != nil {
			return scaleDet{}, err
		}
		shards[s] = st
		// Crash-lost store contents come back from the shard's ledger.
		sys.SetRebuilder(st.Ledger.Rebuild)
		// The cross-shard gateway: machine 0 answers peers on the inline
		// fast path.
		sys.Cluster.Node(0).HandleFast("xget", func(req simnet.Message) (simnet.Message, error) {
			return simnet.Message{Bytes: 128}, nil
		})
	}

	// Shard 0 loses machine 1 mid-run and gets it back: orphaned stores
	// re-place, the rebuilder restores their contents.
	in := fault.New(fl.PK.Shard(0), fl.Shards[0].Cluster, fl.Shards[0].Trace)
	fl.Shards[0].AttachInjector(in)
	in.Install(fault.Schedule{
		{At: sim.Time(float64(cfg.horizon) * 0.35), Op: fault.OpCrash, A: 1},
		{At: sim.Time(float64(cfg.horizon) * 0.65), Op: fault.OpRestart, A: 1},
	})

	var det scaleDet
	for s, st := range shards {
		for c := 0; c < cfg.clients; c++ {
			st.Go(fmt.Sprintf("s%d-client-%d", s, c), func(p *sim.Proc) {
				for op := 0; p.Now() < cfg.horizon; op++ {
					idx := (c + op) % cfg.stores
					key := uint64(c)<<32 | uint64(op)
					if err := st.Ledger.Put(p, 0, idx, key); err == nil {
						det.ops++
					} else {
						det.failed++
					}
					if op%cfg.crossEvery == 0 {
						_, err := net.Call(p, simnet.ShardNode{Shard: s, Node: 0},
							simnet.ShardNode{Shard: (s + 1) % cfg.shards, Node: 0},
							"xget", simnet.Message{Bytes: 64})
						if err == nil {
							det.crossOps++
						} else {
							det.crossFailed++
						}
					}
				}
			})
		}
		st.Drain(func(p *sim.Proc) {
			if s == 0 {
				// Sampled read-back on the crash shard: acked writes must
				// have survived the crash via re-placement + rebuild.
				det.lost = st.Ledger.Verify(p, cfg.sample)
			}
		})
	}

	fl.RunUntil(cfg.horizon + cfg.slack)

	for _, st := range shards {
		if err := st.Err(cfg.horizon + cfg.slack); err != nil {
			return det, fmt.Errorf("ext-scale: %w", err)
		}
	}
	det.events = sumU64(fl.Events())
	det.crashes = in.Crashes.Value()
	det.recoveries = fl.Shards[0].Sched.Recoveries.Value()
	det.windows = fl.PK.Windows()
	det.crossMsgs = uint64(net.CrossCalls.Value())
	det.trace = fl.Trace()
	return det, nil
}

func runExtScale(scale Scale) (*Result, error) {
	cfg := scaleConfig(scale)
	res := newResult("ext-scale")
	res.addf("fleet: %d shards x %d machines = %d machines; %d stores + %d clients per shard",
		cfg.shards, cfg.perShard, cfg.shards*cfg.perShard, cfg.stores, cfg.clients)
	res.addf("faults: shard 0 crashes machine 1 at %v, restarts it at %v",
		sim.Time(float64(cfg.horizon)*0.35), sim.Time(float64(cfg.horizon)*0.65))

	ref, err := runScaleOnce(cfg)
	if err != nil {
		return nil, err
	}
	res.EventsProcessed = ref.events
	res.Traces = []*obs.Log{ref.trace}
	res.addf("ops acked %d (failed %d), cross-shard reads %d (failed %d), objects lost %d",
		ref.ops, ref.failed, ref.crossOps, ref.crossFailed, ref.lost)
	res.addf("crashes %d, orphans re-placed %d; %d sync windows, %d cross-shard RPCs",
		ref.crashes, ref.recoveries, ref.windows, ref.crossMsgs)

	res.set("machines", float64(cfg.shards*cfg.perShard))
	res.set("shards", float64(cfg.shards))
	res.set("ops", float64(ref.ops))
	res.set("failed", float64(ref.failed))
	res.set("cross_ops", float64(ref.crossOps))
	res.set("cross_failed", float64(ref.crossFailed))
	res.set("lost", float64(ref.lost))
	res.set("crashes", float64(ref.crashes))
	res.set("recoveries", float64(ref.recoveries))
	res.set("windows", float64(ref.windows))
	res.set("cross_msgs", float64(ref.crossMsgs))
	res.set("events", float64(res.EventsProcessed))
	return res, nil
}

func sumU64(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}
