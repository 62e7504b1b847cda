package scenario

// The scenario engine: compile a validated Spec onto the partitioned
// simulation kernel and drive it to completion. Each fleet shard is a
// fleet.Shard — core.System, store proclets, open-loop load.Injector
// and server pool, the lifecycle ext-serve and ext-scale share — plus
// a fault injector, assembled from data.
//
// Determinism contract: a run at a fixed seed produces byte-identical
// reports at any host worker count. Everything in Outcome is derived
// from kernel-ordered integers (counts, histogram buckets, virtual
// timestamps); golden records are only walked via sorted keys; shard
// results merge in fixed shard order; wall-clock never appears.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Options are the per-invocation knobs that do not change the
// scenario's identity: which seed to run and how many host workers to
// use. Neither may leak into the report (Seed is echoed deliberately;
// Par must not be).
type Options struct {
	Seed int64 // 0 → the spec's committed seed
	Par  int   // host worker count; <=0 → 1

	// KeepWindows retains every closed SLO window per shard in
	// Outcome.SLOHistory — the data behind qsctl top. Off by default;
	// it is O(windows) memory.
	KeepWindows bool
}

// AssertResult is one evaluated assertion.
type AssertResult struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Bound  float64 `json:"bound"`
	Got    float64 `json:"got"`
	Pass   bool    `json:"pass"`
}

// Outcome is everything a finished run produced: the full metric set,
// the merged latency histogram, per-assertion verdicts, and the shards'
// control-plane logs, which Trace merges and renders.
type Outcome struct {
	Spec    *Spec
	Seed    int64
	Metrics map[string]float64
	Hist    *metrics.LogHistogram
	Asserts []AssertResult
	Pass    bool

	// SLO plane results: incidents in shard order, and per-shard
	// window history when Options.KeepWindows is set.
	Incidents  []slo.Incident
	SLOHistory [][]slo.WindowStat

	logs []*obs.Log // per-shard control-plane logs: Trace's and WriteFlightDump's source
}

// flightTail is how many of each shard's latest control-plane events
// the flight dump keeps.
const flightTail = 64

// mst converts scenario milliseconds to virtual time.
func mst(ms float64) sim.Time { return sim.Time(ms * 1e6) }

// msd converts scenario milliseconds to a duration.
func msd(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// shardState is what a scenario keeps of a shard beyond its
// fleet.Shard. Written only in shard context (procs on that shard's
// kernel), read host-side after the run.
type shardState struct {
	*fleet.Shard
	rm       *core.ReplManager
	in       *fault.Injector
	fleet    *gpu.Fleet
	trainers []*gpu.Proclet

	lost  int64
	migOK int64
	good  metrics.BucketSeries // goodput: on-deadline completions by completion time
}

// countGood is the shard's Tally.OnServe: an on-deadline completion
// counts in the goodput bucket of its completion time.
func (st *shardState) countGood(_, done sim.Time, missed bool) {
	if !missed {
		st.good.Add(done, 1)
	}
}

// Run executes the scenario and evaluates its assertions. The returned
// error covers run-level failures (a wedged shard); assertion failures
// land in Outcome.Pass, not the error.
func Run(sp *Spec, opt Options) (*Outcome, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = sp.Seed
	}
	par := opt.Par
	if par <= 0 {
		par = 1
	}
	f, w := sp.Fleet, sp.Workload
	nShards, machines := int(f.Shards), int(f.Machines) // validate bounds their product
	horizon := mst(sp.HorizonMS)
	drain := mst(sp.DrainMS)
	deadline := int64(w.DeadlineUS * 1e3)
	bucket := time.Duration(sp.BucketMS * 1e6)

	fl := fleet.New(seed, nShards, machines, cluster.MachineConfig{Cores: float64(f.Cores), MemBytes: f.MemMB << 20})
	defer fl.Close()
	fl.PK.SetWorkers(par)

	// One immutable sampler per tenant serves every shard. NewZipf owns
	// the zeta precompute: tenants and runs that share (keys, zipf)
	// share one summation per process.
	zipfs := make([]*load.Zipf, len(w.Tenants))
	for i, t := range w.Tenants {
		zipfs[i] = load.NewZipf(t.Keys, t.Zipf)
	}

	// Compile the event schedule into per-shard fault schedules, spike
	// multipliers per tenant, and per-shard migration lists.
	type migration struct {
		at    sim.Time
		store int // shard-local store index
		to    int // shard-local machine
	}
	faults := make([]fault.Schedule, nShards)
	migs := make([][]migration, nShards)
	spikes := make(map[string][]func(sim.Time) float64)
	for _, ev := range sp.Events {
		at := mst(ev.AtMS)
		switch kind := eventKinds[ev.Kind]; kind.on {
		case onTenant:
			spikes[ev.Tenant] = append(spikes[ev.Tenant],
				load.Spike(at, msd(ev.RampMS), msd(ev.HoldMS), msd(ev.DecayMS), ev.Mult))
		case onStore:
			s := ev.Store / w.Stores
			migs[s] = append(migs[s], migration{
				at: at, store: ev.Store % w.Stores, to: ev.To % machines})
		default:
			// Machine-, GPU- and link-addressed kinds are fault-plane
			// operations; each reads only its own fields of the event.
			a := ev.Machine
			if kind.on == onLink {
				a = ev.A
			}
			faults[a/machines] = append(faults[a/machines], fault.Event{
				At: at, Op: kind.op,
				A:          cluster.MachineID(a % machines),
				B:          cluster.MachineID(ev.B % machines),
				Extra:      time.Duration(ev.ExtraUS * 1e3),
				Drop:       ev.Drop,
				Gpu:        ev.GPU,
				Xid:        ev.Xid,
				Factor:     ev.Factor,
				StallEvery: ev.StallEveryN,
				Stall:      time.Duration(ev.StallUS * 1e3),
			})
		}
	}

	// Every object a store is preloaded with, and so its ledger's first
	// entries: ids 0..Objects-1.
	preload := fleet.Objects(w.Objects, w.ObjectBytes)

	shards := make([]*shardState, nShards)
	for s, sys := range fl.Shards {
		st := &shardState{good: metrics.NewBucketSeries(bucket, horizon+drain)}
		shards[s] = st
		k := sys.K
		sys.Start()

		// The fault plane is installed on every shard — even those with no
		// scheduled faults — so RPC timeout behavior is uniform fleet-wide.
		st.in = fault.New(k, sys.Cluster, sys.Trace)
		sys.AttachInjector(st.in)

		// The streaming SLO plane, when declared: fleet-wide rate floors
		// split across shards the same way tenant rates do.
		var mon *slo.Monitor
		if sp.SLO.Enabled() {
			rules := make([]slo.Rule, len(sp.SLO.Rules))
			for i, r := range sp.SLO.Rules {
				rules[i] = slo.Rule{
					Kind:     slo.RuleKind(r.Kind),
					Name:     r.Name,
					BoundMS:  r.BoundMS,
					FloorRPS: r.FloorRPS / float64(nShards),
					Ceiling:  r.Ceiling,
					For:      r.For,
					Severity: r.Severity,
				}
			}
			mon = slo.New(slo.Config{
				Window:      mst(sp.SLO.WindowMS),
				Windows:     sp.SLO.Windows,
				Rules:       rules,
				Subject:     fmt.Sprintf("s%d", s),
				Machine:     -1,
				KeepHistory: opt.KeepWindows,
			})
			mon.Log = sys.Trace
		}

		// GPUs attach to every non-front-end machine; machine 0 stays a
		// pure serving front end.
		if len(f.GPUs) > 0 {
			cfgs := make([]cluster.GPUConfig, len(f.GPUs))
			for i, c := range f.GPUs {
				cfgs[i] = cluster.GPUConfig{
					Count:         c.Count,
					MemBytes:      c.MemMB << 20,
					LinkBandwidth: int64(c.LinkGBps * 1e9),
					Class:         c.Class,
					Speed:         c.Speed,
				}
			}
			for _, m := range sys.Cluster.Machines() {
				if m.ID != 0 {
					m.AddGPUs(cfgs...)
				}
			}
		}
		if w.RF >= 2 {
			st.rm = sys.EnableReplicationPlane(replication.Config{}, 0)
		}

		// Stores go on machines 1..Machines-1; machine 0 is the shard
		// front end (servers + failure-detector monitor).
		var err error
		if st.Shard, err = fl.NewShard(s, w.Stores, w.RF, w.ObjectBytes); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sp.Name, err)
		}
		st.Tally = fleet.Tally{
			Hist:     metrics.NewLogHistogram(fmt.Sprintf("s%d.lat", s)),
			Mon:      mon,
			Deadline: deadline,
			Horizon:  horizon,
			OnServe:  st.countGood,
		}
		if w.RF == 1 && w.Rebuild {
			sys.SetRebuilder(st.Ledger.Rebuild)
		}
		st.in.Install(faults[s])

		// GPU training riders: a fleet manager places each trainer on the
		// best device, reacts to XIDs/reclaims/stragglers, and fault hooks
		// kick its watcher so reactions aren't quantized to the period.
		if w.Trainers.Count > 0 {
			st.fleet = gpu.NewFleet(sys, fmt.Sprintf("s%d-trainers", s), gpu.Config{
				Checkpoint: gpu.CheckpointConfig{
					DeltaBytes:    w.Trainers.CheckpointKB << 10,
					SnapshotEvery: w.Trainers.SnapshotEvery,
				},
			})
			for ti := 0; ti < w.Trainers.Count; ti++ {
				tp, err := st.fleet.Add(fmt.Sprintf("s%d-trainer-%d", s, ti),
					w.Trainers.ModelMB<<20, time.Duration(w.Trainers.StepUS*1e3))
				if err != nil {
					return nil, fmt.Errorf("scenario %q: shard %d trainer %d: %w", sp.Name, s, ti, err)
				}
				st.trainers = append(st.trainers, tp)
			}
			fleet := st.fleet
			st.in.HookGPU = func(cluster.MachineID, int) { fleet.Kick() }
			fleet.Start()
			for ti, tp := range st.trainers {
				k.Spawn(fmt.Sprintf("s%d-trainer-%d-driver", s, ti), func(p *sim.Proc) {
					tp.Train(p, w.Trainers.BatchKB<<10, func() bool { return p.Now() < horizon }, nil)
				})
			}
		}

		// The shard's open-loop arrival stream: each tenant's fleet rate is
		// split evenly across shards, spike events multiply onto the base
		// curve, and the whole thing is pre-sampled into a piecewise curve.
		for ti, t := range w.Tenants {
			per := t.Rate / float64(nShards)
			var base func(sim.Time) float64
			switch t.Curve {
			case "diurnal":
				base = load.Diurnal(per, t.Amp, msd(t.PeriodMS))
			case "ramp":
				base = load.Ramp(per, t.To/float64(nShards), msd(t.OverMS))
			default:
				base = func(sim.Time) float64 { return per }
			}
			mults := spikes[t.Name]
			rate := base
			if len(mults) > 0 {
				rate = func(at sim.Time) float64 {
					v := base(at)
					for _, m := range mults {
						v *= m(at)
					}
					return v
				}
			}
			st.Inj.AddTenant(t.Name, load.Sampled(horizon, msd(w.SampleStepMS), rate), zipfs[ti])
		}

		// Preload, then inject from a deterministic virtual instant; the
		// server pool on machine 0 drains the queue.
		st.Serve(preload, w.Servers, w.BatchMax, w.WriteFrac, nil)

		// Timed migrations ride their own sleeper procs.
		for mi, m := range migs[s] {
			k.Spawn(fmt.Sprintf("s%d-migrate-%d", s, mi), func(p *sim.Proc) {
				p.Sleep(time.Duration(m.at))
				if err := sys.Runtime.Migrate(p, st.Stores[m.store].ID(), cluster.MachineID(m.to)); err == nil {
					st.migOK++
				}
			})
		}

		// Durability verification: once the servers drain, read back every
		// acked key and count what the fleet lost.
		st.Drain(func(p *sim.Proc) { st.lost = st.Ledger.Verify(p, 1) })
	}

	fl.RunUntil(horizon + drain)

	for _, st := range shards {
		if err := st.Err(horizon + drain); err != nil {
			return nil, fmt.Errorf("scenario %q: %w%s", sp.Name, err, advice(err))
		}
	}

	return collect(sp, seed, shards)
}

// advice is the scenario field to change for a shard that did not
// finish, as a suffix of its error.
func advice(err error) string {
	switch {
	case errors.Is(err, cluster.ErrNoMemory):
		return ": raise fleet.mem_mb or shrink workload.objects × object_bytes"
	case errors.Is(err, fleet.ErrPreloading):
		return " — raise horizon_ms or shrink workload.objects × object_bytes"
	case errors.Is(err, fleet.ErrUndrained):
		return " — raise drain_ms or heal the fleet before the horizon"
	}
	return ""
}

// metric is one row of the report: a name assertions may reference,
// each shard's share of it, and how the run's value follows.
type metric struct {
	name  string
	shard func(st *shardState) float64 // shares add up in shard order; nil when the value only exists run-wide
	fold  func(r *rollup) float64      // nil: the value is the sum of shares; else computed from the merged run
}

// rollup is the merged run a fold reads: the Outcome so far — in
// Metrics, every sum and the folds of the rows above its own — and the
// state no single shard holds.
type rollup struct {
	*Outcome
	good    metrics.BucketSeries // goodput, merged over shards
	startNS int64                // when the last shard finished preloading
	horizon int64
}

// ratio is a/b, and 0 while b has nothing in it.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// fleetCount reads a trainer-fleet counter; a shard without trainers
// has no fleet.
func fleetCount(get func(*gpu.Fleet) int64) func(*shardState) float64 {
	return func(st *shardState) float64 {
		if st.fleet == nil {
			return 0
		}
		return float64(get(st.fleet))
	}
}

// trainerSum adds a per-trainer count over the shard's trainers.
func trainerSum(get func(*gpu.Proclet) int64) func(*shardState) float64 {
	return func(st *shardState) (n float64) {
		for _, tp := range st.trainers {
			n += float64(get(tp))
		}
		return n
	}
}

// metricTable is every metric of a run, in report order. MetricNames,
// collect's accumulation and the report all derive from it.
var metricTable = []metric{
	{"generated", func(st *shardState) float64 { return float64(st.Inj.TotalGenerated()) }, nil},
	{"served", func(st *shardState) float64 { return float64(st.Served) }, nil},
	{"timeouts", func(st *shardState) float64 { return float64(st.Timeouts) }, nil},
	{"timeout_frac", nil, func(r *rollup) float64 { return ratio(r.Metrics["timeouts"], r.Metrics["served"]) }},
	{"errors", func(st *shardState) float64 { return float64(st.Errors) }, nil},
	{"goodput_rps", nil, func(r *rollup) float64 {
		return ratio(r.Metrics["served"]-r.Metrics["timeouts"], float64(r.horizon-r.startNS)/1e9)
	}},
	{"p50_ms", nil, func(r *rollup) float64 { return r.Hist.QuantileMS(0.50) }},
	{"p99_ms", nil, func(r *rollup) float64 { return r.Hist.QuantileMS(0.99) }},
	{"p999_ms", nil, func(r *rollup) float64 { return r.Hist.QuantileMS(0.999) }},
	{"max_ms", nil, func(r *rollup) float64 { return float64(r.Hist.Max()) / 1e6 }},
	{"mean_ms", nil, func(r *rollup) float64 { return r.Hist.Mean() / 1e6 }},
	{"acked_writes", func(st *shardState) float64 { return float64(st.Acked) }, nil},
	{"lost", func(st *shardState) float64 { return float64(st.lost) }, nil},
	{"crashes", func(st *shardState) float64 { return float64(st.in.Crashes.Value()) }, nil},
	{"restarts", func(st *shardState) float64 { return float64(st.in.Restarts.Value()) }, nil},
	{"partitions", func(st *shardState) float64 { return float64(st.in.Partitions.Value()) }, nil},
	{"degrades", func(st *shardState) float64 { return float64(st.in.Degrades.Value()) }, nil},
	{"heals", func(st *shardState) float64 { return float64(st.in.Heals.Value()) }, nil},
	{"promotions", func(st *shardState) float64 {
		if st.rm == nil {
			return 0
		}
		return float64(st.rm.Promotions.Value())
	}, nil},
	{"recoveries", func(st *shardState) float64 { return float64(st.Sys.Sched.Recoveries.Value()) }, nil},
	{"migrations", func(st *shardState) float64 { return float64(st.migOK) }, nil},
	{"recovery_ms", nil, func(r *rollup) float64 { return recoveryMS(r.Spec, &r.good, r.startNS, r.horizon) }},
	{"events", func(st *shardState) float64 { return float64(st.Sys.K.EventsProcessed()) }, nil},
	{"gpu_xids", func(st *shardState) float64 { return float64(st.in.GPUXids.Value()) }, nil},
	{"gpu_throttles", func(st *shardState) float64 { return float64(st.in.GPUThrottles.Value()) }, nil},
	{"gpu_heals", func(st *shardState) float64 { return float64(st.in.GPUHeals.Value()) }, nil},
	{"gpu_restores", fleetCount(func(f *gpu.Fleet) int64 { return f.Restores.Value() }), nil},
	{"gpu_evacuations", fleetCount(func(f *gpu.Fleet) int64 { return f.Evacuations.Value() }), nil},
	{"gpu_mitigations", fleetCount(func(f *gpu.Fleet) int64 { return f.Mitigations.Value() }), nil},
	{"gpu_stranded", fleetCount(func(f *gpu.Fleet) int64 { return f.Stranded.Value() }), nil},
	{"trainer_steps", trainerSum((*gpu.Proclet).CompletedSteps), nil},
	{"checkpoints", trainerSum(func(tp *gpu.Proclet) int64 { return tp.Checkpoints.Value() }), nil},
	{"lost_steps", fleetCount((*gpu.Fleet).LostSteps), nil},
	{"slo_windows", func(st *shardState) float64 { return float64(st.Mon.WindowsClosed()) }, nil},
	{"slo_breaches", func(st *shardState) float64 { return float64(st.Mon.Breaches()) }, nil},
	{"incidents_opened", func(st *shardState) float64 { return float64(st.Mon.Opened()) }, nil},
	{"incidents_resolved", func(st *shardState) float64 { return float64(st.Mon.Resolved()) }, nil},
	{"incidents_open", func(st *shardState) float64 { return float64(st.Mon.OpenCount()) }, nil},
}

// MetricNames is every metric a scenario assertion may reference, in
// report order. Run always populates all of them.
var MetricNames = column(metricTable, func(d metric) string { return d.name })

// collect folds per-shard state into the Outcome, in fixed shard order.
func collect(sp *Spec, seed int64, shards []*shardState) (*Outcome, error) {
	horizon := mst(sp.HorizonMS)
	out := &Outcome{Spec: sp, Seed: seed, Pass: true,
		Metrics: make(map[string]float64, len(metricTable))}
	r := rollup{Outcome: out, horizon: int64(horizon),
		good: metrics.NewBucketSeries(shards[0].good.Width, horizon+mst(sp.DrainMS))}
	hists := make([]*metrics.LogHistogram, len(shards))
	for s, st := range shards {
		// Seal the SLO plane at the horizon: trailing empty windows
		// close (a tail outage still breaches), incidents still open
		// get their spans clamped.
		st.Mon.Finish(horizon)
		out.Incidents = append(out.Incidents, st.Mon.Incidents()...)
		if h := st.Mon.History(); h != nil {
			out.SLOHistory = append(out.SLOHistory, h)
		}
		out.logs = append(out.logs, st.Sys.Trace)
		r.startNS = max(r.startNS, st.StartNS)
		hists[s] = st.Hist
		r.good.Merge(&st.good)
		for _, d := range metricTable {
			if d.shard != nil {
				out.Metrics[d.name] += d.shard(st)
			}
		}
	}
	out.Hist = metrics.MergeLogHistograms("latency", hists...)
	for _, d := range metricTable {
		if d.fold != nil {
			out.Metrics[d.name] = d.fold(&r)
		}
	}
	for _, a := range sp.Asserts {
		got := out.Metrics[a.Metric]
		ok := evalOp(got, a.Op, a.Value)
		out.Asserts = append(out.Asserts, AssertResult{
			Metric: a.Metric, Op: a.Op, Bound: a.Value, Got: got, Pass: ok})
		if !ok {
			out.Pass = false
		}
	}
	return out, nil
}

// recoveryMS measures how long after the last scheduled disturbance
// goodput regained RecoveryFrac of its pre-event baseline. 0 when the
// scenario has no events or no measurable baseline; NeverRecovered when
// no in-horizon bucket after the last event reaches the threshold. A
// window [a, b) holds the buckets wholly inside it: a rounds up, b down.
func recoveryMS(sp *Spec, good *metrics.BucketSeries, startNS, horizon int64) float64 {
	if len(sp.Events) == 0 {
		return 0
	}
	firstNS := int64(mst(sp.Events[0].AtMS))
	lastEnd := int64(0)
	for _, ev := range sp.Events {
		if e := int64(mst(ev.endMS())); e > lastEnd {
			lastEnd = e
		}
	}
	w := int64(good.Width)
	from := func(a int64) int { return int((a + w - 1) / w) }
	i, j := from(startNS+w), min(int(firstNS/w), good.Len())
	sum := good.Sum(i, j)
	if sum == 0 {
		return 0
	}
	threshold := sp.RecoveryFrac * float64(sum) / float64(j-i)
	if b := good.First(from(lastEnd), int(horizon/w), threshold); b >= 0 {
		return float64(int64(b)*w-lastEnd) / 1e6
	}
	return NeverRecovered
}

func evalOp(got float64, op string, bound float64) bool {
	switch op {
	case "==":
		return got == bound
	case "!=":
		return got != bound
	case "<":
		return got < bound
	case "<=":
		return got <= bound
	case ">":
		return got > bound
	case ">=":
		return got >= bound
	}
	return false
}

// fmtMetric renders a metric value for the human report. Counts print
// as integers; NeverRecovered prints as "never".
func fmtMetric(name string, v float64) string {
	if name == "recovery_ms" && v >= NeverRecovered {
		return "never"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// WriteReport renders the deterministic human-readable report: spec
// echo, the full metric set in fixed order, and per-assertion verdicts.
func (o *Outcome) WriteReport(w io.Writer) {
	f, wl := o.Spec.Fleet, o.Spec.Workload
	fmt.Fprintf(w, "scenario %s (seed %d)\n", o.Spec.Name, o.Seed)
	if o.Spec.Description != "" {
		fmt.Fprintf(w, "  %s\n", o.Spec.Description)
	}
	fmt.Fprintf(w, "fleet: %d shards x %d machines = %d machines; %d stores rf=%d + %d servers per shard\n",
		f.Shards, f.Machines, f.Shards*f.Machines, wl.Stores, wl.RF, wl.Servers)
	if wl.Trainers.Count > 0 {
		fmt.Fprintf(w, "gpus: %d classes x %d devices per worker machine; %d trainers (model %d MB, ckpt %d KB) per shard\n",
			len(f.GPUs), f.gpusPerMachine(), wl.Trainers.Count, wl.Trainers.ModelMB, wl.Trainers.CheckpointKB)
	}
	fmt.Fprintf(w, "horizon %gms, drain %gms, %d tenants, %d events, %d assertions\n",
		o.Spec.HorizonMS, o.Spec.DrainMS, len(wl.Tenants), len(o.Spec.Events), len(o.Spec.Asserts))
	for _, ev := range o.Spec.Events {
		fmt.Fprintf(w, "  event: %s\n", ev)
	}
	if o.Spec.SLO.Enabled() {
		fmt.Fprintf(w, "slo: %gms windows, burn-rate ring %d, %d rules; %d windows closed, %d breaches\n",
			o.Spec.SLO.WindowMS, o.Spec.SLO.Windows, len(o.Spec.SLO.Rules),
			int(o.Metrics["slo_windows"]), int(o.Metrics["slo_breaches"]))
		for _, inc := range o.Incidents {
			closeCol := fmt.Sprintf("%.1fms", float64(inc.CloseAt)/1e6)
			if inc.Open {
				closeCol = "open"
			}
			cause := inc.Cause
			if cause == "" {
				cause = "-"
			}
			fmt.Fprintf(w, "  incident [%s] %s %s: %.1fms -> %s cause=%s\n",
				inc.Severity, inc.Subject, inc.Rule, float64(inc.OpenAt)/1e6, closeCol, cause)
		}
	}
	fmt.Fprintf(w, "latency: %s\n", o.Hist.String())
	for _, name := range MetricNames {
		fmt.Fprintf(w, "  %-15s %s\n", name, fmtMetric(name, o.Metrics[name]))
	}
	for _, a := range o.Asserts {
		verdict := "PASS"
		if !a.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "assert %s: %s %s %s (got %s)\n",
			verdict, a.Metric, a.Op, fmtMetric(a.Metric, a.Bound), fmtMetric(a.Metric, a.Got))
	}
	if o.Pass {
		fmt.Fprintf(w, "RESULT PASS: %d/%d assertions hold (%d kernel events)\n",
			len(o.Asserts), len(o.Asserts), uint64(o.Metrics["events"]))
	} else {
		failed := 0
		for _, a := range o.Asserts {
			if !a.Pass {
				failed++
			}
		}
		fmt.Fprintf(w, "RESULT FAIL: %d/%d assertions violated (%d kernel events)\n",
			failed, len(o.Asserts), uint64(o.Metrics["events"]))
	}
}

// jsonReport is the machine-readable failure report shape.
type jsonReport struct {
	Scenario   string             `json:"scenario"`
	Seed       int64              `json:"seed"`
	Pass       bool               `json:"pass"`
	Metrics    map[string]float64 `json:"metrics"`
	Assertions []AssertResult     `json:"assertions"`
	Incidents  []slo.Incident     `json:"incidents,omitempty"`
}

// WriteJSON writes the machine-readable report (metrics keys sorted by
// the marshaler, so the bytes are deterministic).
func (o *Outcome) WriteJSON(w io.Writer) error {
	asserts := o.Asserts
	if asserts == nil {
		asserts = []AssertResult{}
	}
	b, err := json.MarshalIndent(jsonReport{
		Scenario:   o.Spec.Name,
		Seed:       o.Seed,
		Pass:       o.Pass,
		Metrics:    o.Metrics,
		Assertions: asserts,
		Incidents:  o.Incidents,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// Trace renders the run's control-plane log, the shards' logs merged by
// time, ties broken by shard index: the file qsctl run -trace-out writes.
func (o *Outcome) Trace() []string {
	merged, _ := obs.MergeLogs(o.logs...)
	return merged.Lines()
}

// WriteFlightDump renders the flight-recorder timeline — the last
// flightTail control-plane events of every shard, merged by time then
// shard and tagged with the shard — the artifact qsctl run saves when
// assertions fail or an incident opened.
func (o *Outcome) WriteFlightDump(w io.Writer) error {
	merged, shard := obs.MergeTails(flightTail, o.logs...)
	evicted := -merged.Len()
	for _, l := range o.logs {
		evicted += l.Len()
	}
	b := fmt.Appendf(nil, "flight recorder: %s seed %d (%d entries, %d evicted)\n",
		o.Spec.Name, o.Seed, merged.Len(), evicted)
	i := 0
	merged.Each(func(e *obs.Event) {
		b = append(e.AppendLine(fmt.Appendf(b, "s%-2d ", shard[i])), '\n')
		i++
	})
	_, err := w.Write(b)
	return err
}
