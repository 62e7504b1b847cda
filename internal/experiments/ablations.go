package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proclet"
	"repro/internal/sharded"
	"repro/internal/sim"
)

// migrationSpec is one abl-migration point: a proclet with this many
// bytes of state live-migrated between two idle machines.
type migrationSpec int64

func (s migrationSpec) run() (any, uint64, error) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	defer sys.Close()
	pr, err := sys.Runtime.Spawn("migrant", 0, int64(s))
	if err != nil {
		return 0, 0, err
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
	return lat, sys.K.EventsProcessed(), nil
}

// runAblMigration sweeps proclet state size and reports live-migration
// latency — the Nu substrate property everything else rests on ("a few
// milliseconds to migrate a proclet with 10 MiB of state").
func runAblMigration(scale Scale) (*Result, error) {
	sizes := []migrationSpec{64 << 10, 256 << 10, 1 << 20, 4 << 20, 10 << 20, 64 << 20}
	if scale == TestScale {
		sizes = []migrationSpec{64 << 10, 1 << 20, 10 << 20}
	}
	res := newResult("abl-migration")
	res.addf("%-12s %14s", "state", "latency[ms]")
	lats, err := simulate[time.Duration](res, sizes)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		ms := float64(lats[i]) / 1e6
		res.addf("%-12s %14.3f", byteSize(int64(size)), ms)
		res.set(fmt.Sprintf("latency_ms.%d", size), ms)
	}
	res.addf("shape: sub-millisecond below ~1 MiB; ~1-2 ms at 10 MiB (Nu's 'a few ms'); wire-bound beyond.")
	return res, nil
}

// splitSpec is one abl-split point: pushes into a vector whose shards
// split at this many bytes, until the first split.
type splitSpec int64

// splitOut is one abl-split point's outcome.
type splitOut struct{ splitMs, plainMs float64 }

func (s splitSpec) run() (any, uint64, error) {
	var out splitOut
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	defer sys.Close()
	v, err := sharded.NewVector[int](sys, "v", sharded.Options{MaxShardBytes: int64(s)})
	if err != nil {
		return out, 0, err
	}
	elem := int64(s) / 64
	sys.K.Spawn("driver", func(p *sim.Proc) {
		var plain metrics.Summary
		for i := 0; v.Splits == 0 && i < 200; i++ {
			before := v.Splits
			start := p.Now()
			if err := v.PushBack(p, 0, i, elem); err != nil {
				return
			}
			d := p.Now().Sub(start)
			if v.Splits > before {
				out.splitMs = float64(d) / 1e6
			} else {
				plain.Record(int64(d))
			}
		}
		out.plainMs = plain.Mean() / 1e6
	})
	sys.K.Run()
	return out, sys.K.EventsProcessed(), nil
}

// runAblSplit measures the cost of a shard split (scan + bulk move +
// index update) as the split threshold grows — §3.3's argument for
// keeping proclets granular so splits stay fast.
func runAblSplit(scale Scale) (*Result, error) {
	caps := []splitSpec{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	if scale == TestScale {
		caps = []splitSpec{1 << 20, 8 << 20}
	}
	res := newResult("abl-split")
	res.addf("%-12s %16s %16s", "shard cap", "split time[ms]", "plain push[ms]")
	outs, err := simulate[splitOut](res, caps)
	if err != nil {
		return nil, err
	}
	for i, cap := range caps {
		res.addf("%-12s %16.3f %16.3f", byteSize(int64(cap)), outs[i].splitMs, outs[i].plainMs)
		res.set(fmt.Sprintf("split_ms.%d", cap), outs[i].splitMs)
	}
	res.addf("shape: split cost scales with the shard cap — capping shards at the migration budget keeps")
	res.addf("splits (and therefore the blocking window) in low single-digit milliseconds.")
	return res, nil
}

// prefetchSpec is one abl-prefetch mode: a machine-0 scan over elems
// remote 1 MiB elements, fetched batch at a time (0: one synchronous
// round trip per element), computing prefetchCompute on each.
type prefetchSpec struct{ elems, batch int }

const prefetchCompute = 100 * time.Microsecond

// run returns the scan's host-visible seconds.
func (s prefetchSpec) run() (any, uint64, error) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	defer sys.Close()
	v, err := sharded.NewVector[int](sys, "imgs", sharded.Options{MaxShardBytes: 1 << 30})
	if err != nil {
		return 0, 0, err
	}
	var sec float64
	var runErr error
	sys.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < s.elems; i++ {
			if err := v.PushBack(p, 1, i, 1<<20); err != nil {
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
		it := v.Iter(s.batch)
		for {
			_, ok, err := it.Next(p, 0)
			if err != nil {
				runErr = err
				return
			}
			if !ok {
				break
			}
			m0.Exec(p, prefetchCompute)
		}
		sec = p.Now().Sub(start).Seconds()
	})
	sys.K.Run()
	return sec, sys.K.EventsProcessed(), runErr
}

// runAblPrefetch isolates the iterator prefetcher: a compute-light scan
// over remote memory proclets with and without prefetch — the §4 claim
// that remote preprocessing runs as fast as local.
func runAblPrefetch(scale Scale) (*Result, error) {
	elems := 256
	if scale == TestScale {
		elems = 64
	}
	res := newResult("abl-prefetch")
	secs, err := simulate[float64](res, []prefetchSpec{{elems, 16}, {elems, 0}})
	if err != nil {
		return nil, err
	}
	withPf, without := secs[0], secs[1]
	// Lower bound: pure compute with data already local.
	ideal := float64(elems) * prefetchCompute.Seconds()
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
	res := newResult("abl-sched")
	res.addf("%-12s %14s %12s", "scheduler", "goodput[%ideal]", "migrations")
	modes := []struct {
		name             string
		disFast, disSlow bool
	}{
		{"two-level", false, false},
		{"local-only", false, true},
		{"global-only", true, false},
	}
	specs := make([]fig1Spec, len(modes))
	for i, m := range modes {
		specs[i] = fig1With(cfg, func(c *core.Config) {
			c.DisableFastPath = m.disFast
			c.DisableSlowPath = m.disSlow
		})
	}
	stats, err := simulate[fig1Stats](res, specs)
	if err != nil {
		return nil, err
	}
	for i, m := range modes {
		st := stats[i]
		res.addf("%-12s %14.1f %12d", m.name, st.goodputPct, st.migrations)
		res.set(m.name+".goodput_pct", st.goodputPct)
	}
	res.addf("shape: the fast path is what harvests 10 ms windows; a global-only scheduler at 50 ms")
	res.addf("granularity misses most of them. The slow path adds long-term placement, not reaction speed.")
	return res, nil
}

// localitySpec is one abl-locality mode: localityPairs chatty
// compute/memory proclet pairs run to horizon with the slow path's
// affinity colocation on or off.
type localitySpec struct {
	horizon  sim.Time
	colocate bool
}

const localityPairs = 4

// localityOut is one abl-locality mode's outcome.
type localityOut struct {
	opsPerSec float64
	moves     int64 // affinity moves
}

func (s localitySpec) run() (any, uint64, error) {
	sysCfg := core.DefaultConfig()
	sysCfg.DisableSlowPath = !s.colocate
	sys := core.NewSystem(sysCfg, []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	defer sys.Close()
	sys.Start()
	ops := new(int64)
	for i := 0; i < localityPairs; i++ {
		// Memory proclet pinned on machine 1; its reader starts on
		// machine 0.
		mp, err := core.NewMemoryProcletOn(sys, fmt.Sprintf("data-%d", i), 1)
		if err != nil {
			return localityOut{}, 0, err
		}
		sys.Sched.Pin(mp.ID())
		cp, err := core.NewComputeProcletOn(sys, fmt.Sprintf("reader-%d", i), 0, 1)
		if err != nil {
			return localityOut{}, 0, err
		}
		sys.K.Spawn("setup", func(p *sim.Proc) {
			if _, err := core.NewPtr(p, 1, mp, 7, 64<<10); err != nil {
				return
			}
			// One op reads the object, then computes on it. Neither
			// half blocks, so the reader's worker never switches in.
			var got core.CallFn
			read := func() { cp.RunCall(mp.ID(), "mem.get", proclet.Msg{Word: 1, Bytes: 8}, got) }
			computed := func(*core.TaskCtx) { *ops++; read() }
			got = func(_ *core.TaskCtx, _ proclet.Msg, err error) {
				if err == nil {
					cp.RunCompute(5*time.Microsecond, computed)
				}
			}
			read()
		})
	}
	sys.K.RunUntil(s.horizon)
	return localityOut{float64(*ops) / s.horizon.Seconds(), sys.Sched.AffinityMoves.Value()}, sys.K.EventsProcessed(), nil
}

// runAblLocality measures affinity-driven colocation on an RPC-heavy
// workload: compute proclets chatting with pinned memory proclets
// across the network (§5's locality question).
func runAblLocality(scale Scale) (*Result, error) {
	horizon := sim.Time(600 * time.Millisecond)
	if scale == TestScale {
		horizon = sim.Time(400 * time.Millisecond)
	}
	res := newResult("abl-locality")
	outs, err := simulate[localityOut](res, []localitySpec{{horizon, true}, {horizon, false}})
	if err != nil {
		return nil, err
	}
	with, without, moves := outs[0].opsPerSec, outs[1].opsPerSec, outs[0].moves
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

// runAblGranularity sweeps proclet granularity at constant total filler
// capacity and state: the same 8 worker threads and 64 MiB of state
// carved into 1, 2, 4, or 8 proclets. Coarser proclets migrate slower
// and move in bigger indivisible chunks, losing more of each 10 ms
// window — the paper's core argument for granular proclets (§2:
// "fast migration is possible only for fine-grained proclets").
func runAblGranularity(scale Scale) (*Result, error) {
	base := fig1Config(scale)
	const totalWorkers = 8
	const totalState = int64(64 << 20)
	res := newResult("abl-granularity")
	res.addf("total: %d workers, %s of state; figure-1 workload", totalWorkers, byteSize(totalState))
	res.addf("%-20s %14s %12s %14s", "granularity", "goodput[%ideal]", "migrations", "mig mean[ms]")
	memberCounts := []int{1, 2, 4, 8}
	specs := make([]fig1Spec, len(memberCounts))
	for i, members := range memberCounts {
		cfg := base
		cfg.members = members
		cfg.workersPer = totalWorkers / members
		specs[i] = fig1With(cfg, func(c *core.Config) {
			c.ComputeProcletHeap = totalState / int64(members)
		})
	}
	stats, err := simulate[fig1Stats](res, specs)
	if err != nil {
		return nil, err
	}
	for i, members := range memberCounts {
		st := stats[i]
		label := fmt.Sprintf("%d x %dw x %s", members, specs[i].cfg.workersPer, byteSize(specs[i].sys.ComputeProcletHeap))
		res.addf("%-20s %14.1f %12d %14.3f", label, st.goodputPct, st.migrations, st.migMeanMs)
		res.set(fmt.Sprintf("goodput_pct.%d", members), st.goodputPct)
		res.set(fmt.Sprintf("mig_mean_ms.%d", members), st.migMeanMs)
	}
	res.addf("shape: finer proclets migrate faster and pack better, recovering more of every window;")
	res.addf("one monolithic proclet loses several ms of each 10 ms window to its own transfer.")
	return res, nil
}

// runAblReactor sweeps the fast path's sampling period on the Figure 1
// workload — the reaction-time side of §5's 'balance between reaction
// time and quality'.
func runAblReactor(scale Scale) (*Result, error) {
	base := fig1Config(scale)
	res := newResult("abl-reactor")
	res.addf("%-12s %14s %12s", "period", "goodput[%ideal]", "migrations")
	periods := []time.Duration{
		100 * time.Microsecond,
		200 * time.Microsecond,
		time.Millisecond,
		5 * time.Millisecond,
		20 * time.Millisecond,
	}
	if scale == TestScale {
		periods = []time.Duration{200 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond}
	}
	specs := make([]fig1Spec, len(periods))
	for i, period := range periods {
		specs[i] = fig1With(base, func(c *core.Config) { c.LocalPeriod = period })
	}
	stats, err := simulate[fig1Stats](res, specs)
	if err != nil {
		return nil, err
	}
	for i, period := range periods {
		st := stats[i]
		res.addf("%-12v %14.1f %12d", period, st.goodputPct, st.migrations)
		res.set(fmt.Sprintf("goodput_pct.%d", period.Microseconds()), st.goodputPct)
	}
	res.addf("shape: goodput degrades as the detection period approaches the idle-window length;")
	res.addf("at 20 ms (the antagonist period) the reactor is effectively blind.")
	return res, nil
}

// postcopySpec is one abl-postcopy run: a proclet with size bytes of
// state moved by pre-copy, or by post-copy when lazy, under a client
// pinging it every 100 µs.
type postcopySpec struct {
	size int64
	lazy bool
}

// postcopyOut is one abl-postcopy run's outcome.
type postcopyOut struct {
	blackoutMs float64
	residentMs float64
	penalties  int64
}

func (s postcopySpec) run() (any, uint64, error) {
	var o postcopyOut
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	defer sys.Close()
	pr, err := sys.Runtime.Spawn("svc", 0, s.size)
	if err != nil {
		return o, 0, err
	}
	pr.Handle("ping", func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		return proclet.Msg{}, nil
	})
	// A client pinging continuously; the longest gap between
	// successful pings brackets the observable blackout.
	var maxGap time.Duration
	horizon := sim.Time(500 * time.Millisecond)
	sys.K.Spawn("client", func(p *sim.Proc) {
		last := p.Now()
		for p.Now() < horizon {
			if _, err := sys.Runtime.Invoke(p, 1, 0, pr.ID(), "ping", proclet.Msg{}); err == nil {
				if gap := p.Now().Sub(last); gap > maxGap {
					maxGap = gap
				}
				last = p.Now()
			}
			p.Sleep(100 * time.Microsecond)
		}
	})
	sys.K.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		if s.lazy {
			err = sys.Runtime.MigrateLazy(p, pr.ID(), 1)
		} else {
			err = sys.Runtime.Migrate(p, pr.ID(), 1)
		}
	})
	sys.K.RunUntil(horizon)
	if err != nil {
		return o, 0, err
	}
	o.blackoutMs = float64(maxGap) / 1e6
	if s.lazy {
		o.residentMs = sys.Runtime.LazyResidence.Mean() / 1e6
		o.penalties = sys.Runtime.LazyPenalties.Value()
	}
	return o, sys.K.EventsProcessed(), nil
}

// runAblPostcopy compares pre-copy migration (today's Nu) with
// post-copy migration over coherent remote memory (the paper's §5 CXL
// direction: "we can speed up resource proclet migration by postponing
// the copying of data"). For each state size it measures the blackout
// (how long a client's invocations stall around the move) and, for
// post-copy, the time until the heap is fully resident.
func runAblPostcopy(scale Scale) (*Result, error) {
	sizes := []int64{1 << 20, 10 << 20, 64 << 20, 256 << 20}
	if scale == TestScale {
		sizes = []int64{1 << 20, 64 << 20}
	}
	res := newResult("abl-postcopy")
	res.addf("client pings every 100 us across the move; blackout = longest ping stall")
	res.addf("%-10s %16s %16s %16s %16s",
		"state", "pre blackout[ms]", "post blackout[ms]", "resident[ms]", "post stalls")
	var specs []postcopySpec
	for _, size := range sizes {
		specs = append(specs, postcopySpec{size, false}, postcopySpec{size, true})
	}
	outs, err := simulate[postcopyOut](res, specs)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		pre, post := outs[2*i], outs[2*i+1]
		res.addf("%-10s %16.3f %17.3f %16.3f %16d",
			byteSize(size), pre.blackoutMs, post.blackoutMs, post.residentMs, post.penalties)
		res.set(fmt.Sprintf("pre_blackout_ms.%d", size), pre.blackoutMs)
		res.set(fmt.Sprintf("post_blackout_ms.%d", size), post.blackoutMs)
		res.set(fmt.Sprintf("resident_ms.%d", size), post.residentMs)
	}
	res.addf("shape: post-copy's blackout is flat (~fixed overhead + one ping interval) while pre-copy's")
	res.addf("grows with state; the price is a per-invocation remote penalty until the copy lands.")
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
