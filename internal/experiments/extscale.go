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
// The experiment is its own determinism harness (sweepWorkers): the same
// seed runs at every worker count of sweepP and must yield one scaleDet
// — per-shard event counts, per-shard op and error counts, window and
// cross-message totals, and the merged control-plane trace. The CI seed
// sweep runs this experiment at several seeds, so the sweep is
// automatically a seed x P matrix.

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
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

// scaleDet is one run's measurements, every one of which must be
// identical at any worker count.
type scaleDet struct {
	ShardEvents []uint64
	Ops         []int64
	Failed      []int64
	CrossOps    []int64
	CrossFailed []int64
	Lost        int64
	Crashes     int64
	Recoveries  int64
	Windows     uint64
	CrossMsgs   uint64
	Trace       []string
}

// runScaleOnce builds the partitioned fleet and drives it with the
// given number of host workers.
func runScaleOnce(cfg scaleCfg, workers int) (scaleDet, error) {
	fl := fleet.New(seeded(29), cfg.shards, cfg.perShard, cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20})
	defer fl.Close()
	fl.PK.SetWorkers(workers)

	type shardState struct {
		stores []*core.MemoryProclet
		ledger *fleet.Ledger
		latest int64 // last acked value, served by the xget gateway
		done   bool
	}
	shards := make([]*shardState, cfg.shards)
	for s, sys := range fl.Shards {
		st := &shardState{}
		shards[s] = st
		sys.Start()
		var err error
		if st.stores, err = fleet.PlaceStores(sys, fmt.Sprintf("s%d-store-%%d", s), cfg.stores, 1, 1); err != nil {
			return scaleDet{}, err
		}
		// Crash-lost store contents come back from the shard's ledger.
		st.ledger = fleet.NewLedger(st.stores, cfg.opBytes, opVal)
		sys.SetRebuilder(st.ledger.Rebuild)
		// The cross-shard gateway: machine 0 serves the shard's last
		// acked value to peers, on the inline fast path.
		sys.Cluster.Node(0).HandleFast("xget", func(req simnet.Message) (simnet.Message, error) {
			return simnet.Message{Payload: st.latest, Bytes: 128}, nil
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

	det := scaleDet{
		Ops:         make([]int64, cfg.shards),
		Failed:      make([]int64, cfg.shards),
		CrossOps:    make([]int64, cfg.shards),
		CrossFailed: make([]int64, cfg.shards),
	}
	for s, st := range shards {
		k := fl.PK.Shard(s)
		var wg sim.WaitGroup
		for c := 0; c < cfg.clients; c++ {
			wg.Add(1)
			k.Spawn(fmt.Sprintf("s%d-client-%d", s, c), func(p *sim.Proc) {
				defer wg.Done()
				for op := 0; p.Now() < cfg.horizon; op++ {
					idx := (c + op) % cfg.stores
					key := uint64(c)<<32 | uint64(op)
					if err := st.stores[idx].PutInt(p, 0, key, opVal(key), cfg.opBytes); err == nil {
						st.ledger.Ack(idx, key)
						st.latest = opVal(key)
						det.Ops[s]++
					} else {
						det.Failed[s]++
					}
					if op%cfg.crossEvery == 0 {
						_, err := fl.Net.Call(p, simnet.ShardNode{Shard: s, Node: 0},
							simnet.ShardNode{Shard: (s + 1) % cfg.shards, Node: 0},
							"xget", simnet.Message{Bytes: 64})
						if err == nil {
							det.CrossOps[s]++
						} else {
							det.CrossFailed[s]++
						}
					}
				}
			})
		}
		k.Spawn(fmt.Sprintf("s%d-verify", s), func(p *sim.Proc) {
			wg.Wait(p)
			if s == 0 {
				// Sampled read-back on the crash shard: acked writes must
				// have survived the crash via re-placement + rebuild.
				det.Lost = st.ledger.Verify(p, cfg.sample)
			}
			st.done = true
		})
	}

	fl.PK.RunUntil(cfg.horizon + cfg.slack)

	for s, st := range shards {
		if !st.done {
			return det, fmt.Errorf("ext-scale: shard %d did not drain by %v (workload wedged)", s, cfg.horizon+cfg.slack)
		}
	}
	det.ShardEvents = fl.Events()
	det.Crashes = in.Crashes.Value()
	det.Recoveries = fl.Shards[0].Sched.Recoveries.Value()
	det.Windows = fl.PK.Windows()
	det.CrossMsgs = uint64(fl.Net.CrossCalls.Value())
	det.Trace = fl.Trace()
	return det, nil
}

// opVal is the value the closed-loop writers of ext-scale, ext-chaos and
// ext-failover store under key = client<<32 | op — a pure function of
// the key, which is what lets a fleet.Ledger of keys stand in for the
// durable copy of the data.
func opVal(key uint64) int64 { return int64(key>>32)*1_000_003 + int64(uint32(key)) }

// sweepP is the host worker counts every partitioned experiment runs at.
var sweepP = []int{1, 4, 8}

// sweepWorkers makes a partitioned experiment its own determinism
// harness: it runs once at each worker count of sweepP and fails unless
// every run's outcome is reflect.DeepEqual to the first's, which it
// returns. Each run's per-shard kernel events are added to res. Host
// wall-clock per worker count goes under Values keys prefixed "wall_":
// host time is the one observable that legitimately varies run to run
// (and cannot show parallel speedup at all on a single-core host), so
// those keys never appear in Lines (which the seed sweep byte-compares)
// and benchdiff excludes the prefix from its regression gate.
func sweepWorkers[O any](res *Result, once func(workers int) (O, []uint64, error)) (O, error) {
	wall := make([]float64, len(sweepP))
	var ref O
	var refEvents []uint64
	for i, p := range sweepP {
		start := time.Now()
		o, events, err := once(p)
		if err != nil {
			return ref, err
		}
		wall[i] = float64(time.Since(start).Microseconds()) / 1000
		res.EventsProcessed += sumU64(events)
		if i == 0 {
			ref, refEvents = o, events
		} else if !reflect.DeepEqual(o, ref) {
			return ref, fmt.Errorf("%s: determinism violated — P=%d diverged from P=%d (per-shard events %v vs %v)",
				res.ID, p, sweepP[0], events, refEvents)
		}
	}
	for i, p := range sweepP {
		res.set(fmt.Sprintf("wall_ms_p%d", p), wall[i])
		if i > 0 && wall[i] > 0 {
			res.set(fmt.Sprintf("wall_speedup_p%d", p), wall[0]/wall[i])
		}
	}
	return ref, nil
}

func runExtScale(scale Scale) (*Result, error) {
	cfg := scaleConfig(scale)
	res := newResult("ext-scale", "extension: 1,000-machine partitioned fleet, deterministic at any worker count")
	res.addf("fleet: %d shards x %d machines = %d machines; %d stores + %d clients per shard",
		cfg.shards, cfg.perShard, cfg.shards*cfg.perShard, cfg.stores, cfg.clients)
	res.addf("faults: shard 0 crashes machine 1 at %v, restarts it at %v",
		sim.Time(float64(cfg.horizon)*0.35), sim.Time(float64(cfg.horizon)*0.65))

	ref, err := sweepWorkers(res, func(p int) (scaleDet, []uint64, error) {
		det, err := runScaleOnce(cfg, p)
		return det, det.ShardEvents, err
	})
	if err != nil {
		return nil, err
	}
	res.Trace = ref.Trace

	var ops, failed, crossOps, crossFailed int64
	for s := 0; s < cfg.shards; s++ {
		ops += ref.Ops[s]
		failed += ref.Failed[s]
		crossOps += ref.CrossOps[s]
		crossFailed += ref.CrossFailed[s]
	}
	res.addf("ops acked %d (failed %d), cross-shard reads %d (failed %d), objects lost %d",
		ops, failed, crossOps, crossFailed, ref.Lost)
	res.addf("crashes %d, orphans re-placed %d; %d sync windows, %d cross-shard RPCs",
		ref.Crashes, ref.Recoveries, ref.Windows, ref.CrossMsgs)
	res.addf("determinism: per-shard events %v identical at P=%v (asserted in-run)",
		ref.ShardEvents, sweepP)
	res.addf("wall-clock per worker count is host time: see the wall_* keys in the")
	res.addf("JSON output (excluded from byte-compared output and the benchdiff gate).")

	res.set("machines", float64(cfg.shards*cfg.perShard))
	res.set("shards", float64(cfg.shards))
	res.set("ops", float64(ops))
	res.set("failed", float64(failed))
	res.set("cross_ops", float64(crossOps))
	res.set("cross_failed", float64(crossFailed))
	res.set("lost", float64(ref.Lost))
	res.set("crashes", float64(ref.Crashes))
	res.set("recoveries", float64(ref.Recoveries))
	res.set("windows", float64(ref.Windows))
	res.set("cross_msgs", float64(ref.CrossMsgs))
	res.set("events", float64(sumU64(ref.ShardEvents)))
	return res, nil
}

func sumU64(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}
