package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proclet"
	"repro/internal/runpar"
	"repro/internal/sharded"
	"repro/internal/sim"
)

// runAblMigration sweeps proclet state size and reports live-migration
// latency — the Nu substrate property everything else rests on ("a few
// milliseconds to migrate a proclet with 10 MiB of state").
func runAblMigration(scale Scale) (*Result, error) {
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 10 << 20, 64 << 20}
	if scale == TestScale {
		sizes = []int64{64 << 10, 1 << 20, 10 << 20}
	}
	res := newResult("abl-migration", "migration latency vs proclet state size")
	res.addf("%-12s %14s", "state", "latency[ms]")
	// Each sweep point is an independent two-machine simulation; fan
	// the points out across host cores and merge in size order.
	type point struct {
		lat    time.Duration
		events uint64
	}
	pts, err := runpar.MapErr(len(sizes), parallelism, func(i int) (point, error) {
		sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
			{Cores: 8, MemBytes: 8 << 30},
			{Cores: 8, MemBytes: 8 << 30},
		})
		defer sys.Close()
		pr, err := sys.Runtime.Spawn("migrant", 0, sizes[i])
		if err != nil {
			return point{}, err
		}
		var lat time.Duration
		sys.K.Spawn("ctl", func(p *sim.Proc) {
			start := p.Now()
			if err := sys.Runtime.Migrate(p, pr.ID(), 1); err != nil {
				return
			}
			lat = p.Now().Sub(start)
		})
		sys.K.Run()
		return point{lat, sys.K.EventsProcessed()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		res.EventsProcessed += pts[i].events
		ms := float64(pts[i].lat) / 1e6
		res.addf("%-12s %14.3f", byteSize(size), ms)
		res.set(fmt.Sprintf("latency_ms.%d", size), ms)
	}
	res.addf("shape: sub-millisecond below ~1 MiB; ~1-2 ms at 10 MiB (Nu's 'a few ms'); wire-bound beyond.")
	return res, nil
}

// runAblSplit measures the cost of a shard split (scan + bulk move +
// index update) as the split threshold grows — §3.3's argument for
// keeping proclets granular so splits stay fast.
func runAblSplit(scale Scale) (*Result, error) {
	caps := []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	if scale == TestScale {
		caps = []int64{1 << 20, 8 << 20}
	}
	res := newResult("abl-split", "split latency vs shard size cap")
	res.addf("%-12s %16s %16s", "shard cap", "split time[ms]", "plain push[ms]")
	for _, cap := range caps {
		sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
			{Cores: 8, MemBytes: 8 << 30},
			{Cores: 8, MemBytes: 8 << 30},
		})
		v, err := sharded.NewVector[int](sys, "v", sharded.Options{MaxShardBytes: cap})
		if err != nil {
			sys.Close()
			return nil, err
		}
		elem := cap / 64
		var splitMs, plainMs float64
		sys.K.Spawn("driver", func(p *sim.Proc) {
			var plainSum float64
			plainN := 0
			for i := 0; v.Splits == 0 && i < 200; i++ {
				before := v.Splits
				start := p.Now()
				if err := v.PushBack(p, 0, i, elem); err != nil {
					return
				}
				d := float64(p.Now().Sub(start)) / 1e6
				if v.Splits > before {
					splitMs = d
				} else {
					plainSum += d
					plainN++
				}
			}
			if plainN > 0 {
				plainMs = plainSum / float64(plainN)
			}
		})
		sys.K.Run()
		res.EventsProcessed += sys.K.EventsProcessed()
		sys.Close() // each point's kernel and parked daemons go before the next is built
		res.addf("%-12s %16.3f %16.3f", byteSize(cap), splitMs, plainMs)
		res.set(fmt.Sprintf("split_ms.%d", cap), splitMs)
	}
	res.addf("shape: split cost scales with the shard cap — capping shards at the migration budget keeps")
	res.addf("splits (and therefore the blocking window) in low single-digit milliseconds.")
	return res, nil
}

// runAblPrefetch isolates the iterator prefetcher: a compute-light scan
// over remote memory proclets with and without prefetch — the §4 claim
// that remote preprocessing runs as fast as local.
func runAblPrefetch(scale Scale) (*Result, error) {
	elems := 256
	elemBytes := int64(1 << 20)
	computePer := 100 * time.Microsecond
	if scale == TestScale {
		elems = 64
	}
	res := newResult("abl-prefetch", "iterator prefetch hides remote shard latency")

	run := func(batch int) (float64, error) {
		sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
			{Cores: 8, MemBytes: 8 << 30},
			{Cores: 8, MemBytes: 8 << 30},
		})
		defer sys.Close()
		v, err := sharded.NewVector[int](sys, "imgs", sharded.Options{MaxShardBytes: 1 << 30})
		if err != nil {
			return 0, err
		}
		var sec float64
		var runErr error
		sys.K.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < elems; i++ {
				if err := v.PushBack(p, 1, i, elemBytes); err != nil {
					runErr = err
					return
				}
			}
			// Pin the data to machine 1 so it is remote to the
			// machine-0 consumer regardless of placement tie-breaks.
			for _, mp := range v.Shards() {
				if mp.Location() != 1 {
					if err := sys.Runtime.Migrate(p, mp.ID(), 1); err != nil {
						runErr = err
						return
					}
				}
			}
			m0 := sys.Cluster.Machine(0)
			start := p.Now()
			it := v.Iter(batch)
			for {
				_, ok, err := it.Next(p, 0)
				if err != nil {
					runErr = err
					return
				}
				if !ok {
					break
				}
				m0.Exec(p, computePer)
			}
			sec = p.Now().Sub(start).Seconds()
		})
		sys.K.Run()
		res.EventsProcessed += sys.K.EventsProcessed()
		return sec, runErr
	}

	withPf, err := run(16)
	if err != nil {
		return nil, err
	}
	without, err := run(0)
	if err != nil {
		return nil, err
	}
	// Lower bound: pure compute with data already local.
	ideal := float64(elems) * computePer.Seconds()
	res.addf("%-18s %12s %12s", "mode", "time[ms]", "vs ideal")
	res.addf("%-18s %12.2f %11.2fx", "prefetch (16)", withPf*1000, withPf/ideal)
	res.addf("%-18s %12.2f %11.2fx", "no prefetch", without*1000, without/ideal)
	res.addf("%-18s %12.2f %11.2fx", "local ideal", ideal*1000, 1.0)
	res.set("prefetch_ms", withPf*1000)
	res.set("noprefetch_ms", without*1000)
	res.set("ideal_ms", ideal*1000)
	res.set("speedup", without/withPf)
	res.addf("shape: prefetch overlaps the wire with compute, approaching the local ideal;")
	res.addf("synchronous access pays a round trip per element.")
	return res, nil
}

// runAblSched compares the two-level scheduler against local-only and
// global-only variants on the Figure 1 workload (§5's design question).
func runAblSched(scale Scale) (*Result, error) {
	cfg := fig1Config(scale)
	res := newResult("abl-sched", "two-level scheduling: fast local + slow global")
	res.addf("%-12s %14s %12s", "scheduler", "goodput[%ideal]", "migrations")
	modes := []struct {
		name             string
		disFast, disSlow bool
	}{
		{"two-level", false, false},
		{"local-only", false, true},
		{"global-only", true, false},
	}
	stats, err := runpar.MapErr(len(modes), parallelism, func(i int) (fig1Stats, error) {
		return fig1RunWith(cfg, func(c *core.Config) {
			c.DisableFastPath = modes[i].disFast
			c.DisableSlowPath = modes[i].disSlow
		})
	})
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		st := stats[i]
		res.EventsProcessed += st.events
		res.addf("%-12s %14.1f %12d", m.name, st.goodputPct, st.migrations)
		res.set(m.name+".goodput_pct", st.goodputPct)
	}
	res.addf("shape: the fast path is what harvests 10 ms windows; a global-only scheduler at 50 ms")
	res.addf("granularity misses most of them. The slow path adds long-term placement, not reaction speed.")
	return res, nil
}

// runAblLocality measures affinity-driven colocation on an RPC-heavy
// workload: compute proclets chatting with pinned memory proclets
// across the network (§5's locality question).
func runAblLocality(scale Scale) (*Result, error) {
	pairs := 4
	horizon := sim.Time(600 * time.Millisecond)
	if scale == TestScale {
		horizon = sim.Time(400 * time.Millisecond)
	}
	res := newResult("abl-locality", "affinity colocation for chatty proclet pairs")

	run := func(colocate bool) (float64, int64, uint64, error) {
		sysCfg := core.DefaultConfig()
		sysCfg.DisableSlowPath = !colocate
		sys := core.NewSystem(sysCfg, []cluster.MachineConfig{
			{Cores: 8, MemBytes: 8 << 30},
			{Cores: 8, MemBytes: 8 << 30},
		})
		defer sys.Close()
		sys.Start()
		ops := new(int64)
		for i := 0; i < pairs; i++ {
			// Memory proclet pinned on machine 1; its reader starts on
			// machine 0.
			mp, err := core.NewMemoryProcletOn(sys, fmt.Sprintf("data-%d", i), 1)
			if err != nil {
				return 0, 0, 0, err
			}
			sys.Sched.Pin(mp.ID())
			cp, err := core.NewComputeProcletOn(sys, fmt.Sprintf("reader-%d", i), 0, 1)
			if err != nil {
				return 0, 0, 0, err
			}
			mpLocal := mp
			cpLocal := cp
			sys.K.Spawn("setup", func(p *sim.Proc) {
				if _, err := core.NewPtr(p, 1, mpLocal, 7, 64<<10); err != nil {
					return
				}
				// One op reads the object, then computes on it. Neither
				// half blocks, so the reader's worker never switches in.
				var got core.CallFn
				read := func() { cpLocal.RunCall(mpLocal.ID(), "mem.get", proclet.Msg{Word: 1, Bytes: 8}, got) }
				computed := func(*core.TaskCtx) { *ops++; read() }
				got = func(_ *core.TaskCtx, _ proclet.Msg, err error) {
					if err == nil {
						cpLocal.RunCompute(5*time.Microsecond, computed)
					}
				}
				read()
			})
		}
		sys.K.RunUntil(horizon)
		return float64(*ops) / horizon.Seconds(), sys.Sched.AffinityMoves.Value(), sys.K.EventsProcessed(), nil
	}

	with, moves, evWith, err := run(true)
	if err != nil {
		return nil, err
	}
	without, _, evWithout, err := run(false)
	if err != nil {
		return nil, err
	}
	res.EventsProcessed = evWith + evWithout
	res.addf("%-16s %14s %14s", "mode", "ops/sec", "affinity moves")
	res.addf("%-16s %14.0f %14d", "colocation on", with, moves)
	res.addf("%-16s %14.0f %14s", "colocation off", without, "-")
	res.set("with_ops_per_sec", with)
	res.set("without_ops_per_sec", without)
	res.set("affinity_moves", float64(moves))
	res.set("speedup", with/without)
	res.addf("shape: once the rebalancer colocates each chatty pair, invocations become local function")
	res.addf("calls and throughput rises by the RPC round-trip factor.")
	return res, nil
}

// byteSize renders a byte count compactly.
func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.4gGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.4gMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.4gKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
