package scenario

// The scenario engine: compile a validated Spec onto the partitioned
// simulation kernel and drive it to completion. Each fleet shard gets
// its own core.System, store proclets, open-loop load.Injector, fault
// injector, and server pool — the same shapes as the hand-coded
// internal/experiments drivers, but assembled from data.
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
	"repro/internal/proclet"
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
// the merged latency histogram, per-assertion verdicts, and the merged
// control-plane trace.
type Outcome struct {
	Spec    *Spec
	Seed    int64
	Metrics map[string]float64
	Hist    *metrics.LogHistogram
	Asserts []AssertResult
	Pass    bool
	Trace   []string

	// SLO plane results: incidents in shard order, and per-shard
	// window history when Options.KeepWindows is set.
	Incidents  []slo.Incident
	SLOHistory [][]slo.WindowStat

	logs []*obs.Log // per-shard control-plane logs: WriteFlightDump's source
}

// flightTail is how many of each shard's latest control-plane events
// the flight dump keeps.
const flightTail = 64

// injWindows sizes the injector batch window in lookahead units, as in
// the ext-serve experiment (125 x 2us lookahead = 250us windows).
const injWindows = 125

// verifyChunk bounds ids per read-back GetBatch during verification.
const verifyChunk = 64

// serverPoll is the server idle-queue poll interval.
const serverPoll = 20 * time.Microsecond

// mst converts scenario milliseconds to virtual time.
func mst(ms float64) sim.Time { return sim.Time(ms * 1e6) }

// msd converts scenario milliseconds to a duration.
func msd(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// writeVal is the value stored under an object id — a pure function of
// the id, so replays, rebuilds, and verification all agree without
// coordination.
func writeVal(id uint64) int64 { return int64(id ^ 0x9e3779b97f4a7c15) }

// shardState is one shard's mutable run state. Written only in shard
// context (procs on that shard's kernel), read host-side after the run.
type shardState struct {
	sys      *core.System
	rm       *core.ReplManager
	in       *fault.Injector
	stores   []*core.MemoryProclet
	ledger   *fleet.Ledger
	inj      *load.Injector
	queue    load.Queue
	fleet    *gpu.Fleet
	trainers []*gpu.Proclet

	served   uint64
	timeouts uint64
	errs     uint64
	acked    uint64
	lost     int64
	migOK    int64
	startNS  int64 // when the preload finished; 0 until it has
	setupErr error // why it never will
	hist     *metrics.LogHistogram
	good     []int64 // goodput buckets: on-deadline completions by completion time
	done     bool

	mon *slo.Monitor // nil unless the spec declares an slo block
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
	horizon := mst(sp.HorizonMS)
	drain := mst(sp.DrainMS)
	deadline := int64(w.DeadlineUS * 1e3)
	bucketNS := int64(sp.BucketMS * 1e6)
	nBuckets := int((int64(horizon)+int64(drain))/bucketNS) + 2

	fl := fleet.New(seed, f.Shards, f.Machines, cluster.MachineConfig{Cores: float64(f.Cores), MemBytes: f.MemMB << 20})
	defer fl.Close()
	fl.PK.SetWorkers(par)
	injWindow := time.Duration(fl.PK.Lookahead()) * injWindows

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
	faults := make([]fault.Schedule, f.Shards)
	migs := make([][]migration, f.Shards)
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
				at: at, store: ev.Store % w.Stores, to: ev.To % f.Machines})
		default:
			// Machine-, GPU- and link-addressed kinds are fault-plane
			// operations; each reads only its own fields of the event.
			a := ev.Machine
			if kind.on == onLink {
				a = ev.A
			}
			faults[a/f.Machines] = append(faults[a/f.Machines], fault.Event{
				At: at, Op: kind.op,
				A:          cluster.MachineID(a % f.Machines),
				B:          cluster.MachineID(ev.B % f.Machines),
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
	preload := &core.Batch{IDs: make([]uint64, w.Objects), Vals: make([]core.Value, w.Objects), Sizes: make([]int64, w.Objects)}
	for i := range preload.IDs {
		preload.IDs[i], preload.Vals[i], preload.Sizes[i] = uint64(i), core.Int(writeVal(uint64(i))), w.ObjectBytes
	}

	shards := make([]*shardState, f.Shards)
	for s, sys := range fl.Shards {
		st := &shardState{
			sys:  sys,
			hist: metrics.NewLogHistogram(fmt.Sprintf("s%d.lat", s)),
			good: make([]int64, nBuckets),
		}
		shards[s] = st
		k := sys.K
		sys.Start()

		// The fault plane is installed on every shard — even those with no
		// scheduled faults — so RPC timeout behavior is uniform fleet-wide.
		st.in = fault.New(k, st.sys.Cluster, st.sys.Trace)
		st.sys.AttachInjector(st.in)

		// The streaming SLO plane, when declared: fleet-wide rate floors
		// split across shards the same way tenant rates do.
		if sp.SLO.Enabled() {
			rules := make([]slo.Rule, len(sp.SLO.Rules))
			for i, r := range sp.SLO.Rules {
				rules[i] = slo.Rule{
					Kind:     slo.RuleKind(r.Kind),
					Name:     r.Name,
					BoundMS:  r.BoundMS,
					FloorRPS: r.FloorRPS / float64(f.Shards),
					Ceiling:  r.Ceiling,
					For:      r.For,
					Severity: r.Severity,
				}
			}
			st.mon = slo.New(slo.Config{
				Window:      mst(sp.SLO.WindowMS),
				Windows:     sp.SLO.Windows,
				Rules:       rules,
				Subject:     fmt.Sprintf("s%d", s),
				Machine:     -1,
				KeepHistory: opt.KeepWindows,
			})
			st.mon.Log = st.sys.Trace
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
			for _, m := range st.sys.Cluster.Machines() {
				if m.ID != 0 {
					m.AddGPUs(cfgs...)
				}
			}
		}
		if w.RF >= 2 {
			st.rm = st.sys.EnableReplicationPlane(replication.Config{}, 0)
		}

		// Stores go on machines 1..Machines-1; machine 0 is the shard
		// front end (servers + failure-detector monitor).
		var err error
		st.stores, err = fleet.PlaceStores(sys, fmt.Sprintf("s%d-store-%%d", s), w.Stores, 1, w.RF)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sp.Name, err)
		}
		st.ledger = fleet.NewLedger(st.stores, w.ObjectBytes, writeVal)
		for i := range st.stores {
			st.ledger.Ack(i, preload.IDs...)
		}
		if w.RF == 1 && w.Rebuild {
			sys.SetRebuilder(st.ledger.Rebuild)
		}
		st.in.Install(faults[s])

		// GPU training riders: a fleet manager places each trainer on the
		// best device, reacts to XIDs/reclaims/stragglers, and fault hooks
		// kick its watcher so reactions aren't quantized to the period.
		if w.Trainers.Count > 0 {
			st.fleet = gpu.NewFleetConfig(st.sys, fmt.Sprintf("s%d-trainers", s), gpu.Config{
				Checkpoint: gpu.CheckpointConfig{
					DeltaBytes:    w.Trainers.CheckpointKB << 10,
					SnapshotEvery: w.Trainers.SnapshotEvery,
					Home:          gpu.AutoHome,
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
				tp := tp
				k.Spawn(fmt.Sprintf("s%d-trainer-%d-driver", s, ti), func(p *sim.Proc) {
					for p.Now() < horizon {
						err := tp.Step(p, tp.Device().Machine.ID, w.Trainers.BatchKB<<10)
						if err == nil {
							continue
						}
						if errors.Is(err, proclet.ErrDead) {
							return
						}
						// Device lost mid-stream: park until the fleet
						// re-places the proclet, then resume stepping.
						if tp.AwaitPlaced(p) != nil {
							return
						}
					}
				})
			}
		}

		// The shard's open-loop arrival stream: each tenant's fleet rate is
		// split evenly across shards, spike events multiply onto the base
		// curve, and the whole thing is pre-sampled into a piecewise curve.
		st.inj = load.NewInjector(k, injWindow, st.queue.Push)
		for ti, t := range w.Tenants {
			per := t.Rate / float64(f.Shards)
			var base func(sim.Time) float64
			switch t.Curve {
			case "diurnal":
				base = load.Diurnal(per, t.Amp, msd(t.PeriodMS))
			case "ramp":
				base = load.Ramp(per, t.To/float64(f.Shards), msd(t.OverMS))
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
			st.inj.AddTenant(t.Name, load.Sampled(horizon, msd(w.SampleStepMS), rate), zipfs[ti])
		}

		// Preload, then start injection at a deterministic virtual instant.
		k.Spawn(fmt.Sprintf("s%d-setup", s), func(p *sim.Proc) {
			for i, mp := range st.stores {
				if err := mp.PutBatch(p, 0, preload); err != nil {
					st.setupErr = fmt.Errorf("preload of store %d (%d objects of %d bytes): %w", i, w.Objects, w.ObjectBytes, err)
					return
				}
			}
			st.startNS = int64(p.Now())
			st.inj.Start(p.Now(), horizon)
		})

		// Server pool: batched fan-in per store, reads via GetBatch and
		// writes via PutBatch. A request is a write iff its key falls in
		// the write fraction; writes land under scrambled keys and join the
		// golden record on ack.
		var wg sim.WaitGroup
		writeCut := uint64(w.WriteFrac * 1000)
		for srv := 0; srv < w.Servers; srv++ {
			wg.Add(1)
			k.Spawn(fmt.Sprintf("s%d-server-%d", s, srv), func(p *sim.Proc) {
				defer wg.Done()
				readIDs := make([][]uint64, w.Stores)
				writeIDs := make([][]uint64, w.Stores)
				// One read buffer and one write buffer per server: nothing
				// read is kept past the call, and the store copies writes
				// out before PutBatch returns.
				var rbuf, wbuf core.Batch
				st.queue.Serve(p, horizon, serverPoll, w.BatchMax, func(batch []load.Request) {
					for i := range readIDs {
						readIDs[i] = readIDs[i][:0]
						writeIDs[i] = writeIDs[i][:0]
					}
					for _, r := range batch {
						si := int(r.Key % uint64(w.Stores))
						if r.Key%1000 < writeCut {
							writeIDs[si] = append(writeIDs[si], load.ScrambleKey(r.Key))
						} else {
							readIDs[si] = append(readIDs[si], r.Key%uint64(w.Objects))
						}
					}
					for si := range st.stores {
						if ids := readIDs[si]; len(ids) > 0 {
							if err := st.stores[si].GetBatch(p, 0, ids, &rbuf); err != nil {
								st.errs += uint64(len(ids))
							}
						}
						if ids := writeIDs[si]; len(ids) > 0 {
							wbuf.IDs, wbuf.Vals, wbuf.Sizes = ids, wbuf.Vals[:0], wbuf.Sizes[:0]
							for _, id := range ids {
								wbuf.Vals = append(wbuf.Vals, core.Int(writeVal(id)))
								wbuf.Sizes = append(wbuf.Sizes, w.ObjectBytes)
							}
							if err := st.stores[si].PutBatch(p, 0, &wbuf); err != nil {
								st.errs += uint64(len(ids))
							} else {
								st.ledger.Ack(si, ids...)
								st.acked += uint64(len(ids))
							}
						}
					}
					now := p.Now()
					for _, r := range batch {
						lat := int64(now - r.At)
						st.hist.Record(lat)
						// The SLO plane covers the scenario horizon:
						// completions during the drain are backlog
						// clearing, not steady-state service.
						if now < horizon {
							st.mon.Observe(now, lat, lat > deadline)
						}
						st.served++
						if lat > deadline {
							st.timeouts++
						} else {
							bi := int(int64(now) / bucketNS)
							if bi >= len(st.good) {
								bi = len(st.good) - 1
							}
							st.good[bi]++
						}
					}
				})
			})
		}

		// Timed migrations ride their own sleeper procs.
		for mi, m := range migs[s] {
			m := m
			k.Spawn(fmt.Sprintf("s%d-migrate-%d", s, mi), func(p *sim.Proc) {
				p.Sleep(time.Duration(m.at))
				if err := st.sys.Runtime.Migrate(p, st.stores[m.store].ID(), cluster.MachineID(m.to)); err == nil {
					st.migOK++
				}
			})
		}

		// Durability verification: once the servers drain, read back every
		// golden key (sorted, chunked) and count what the fleet lost.
		k.Spawn(fmt.Sprintf("s%d-verify", s), func(p *sim.Proc) {
			wg.Wait(p)
			var rb core.Batch // each chunk is checked before the next is read
			got := make(map[uint64]int64, verifyChunk)
			for si, mp := range st.stores {
				keys := st.ledger.Keys(si)
				for off := 0; off < len(keys); off += verifyChunk {
					end := off + verifyChunk
					if end > len(keys) {
						end = len(keys)
					}
					chunk := keys[off:end]
					if err := mp.GetBatch(p, 0, chunk, &rb); err != nil {
						st.lost += int64(len(chunk))
						continue
					}
					clear(got)
					for j, id := range rb.IDs {
						if v, ok := rb.Vals[j].Int(); ok {
							got[id] = v
						}
					}
					for _, id := range chunk {
						if v, ok := got[id]; !ok || v != writeVal(id) {
							st.lost++
						}
					}
				}
			}
			st.done = true
		})
	}

	fl.PK.RunUntil(horizon + drain)

	for s, st := range shards {
		switch {
		case errors.Is(st.setupErr, cluster.ErrNoMemory):
			return nil, fmt.Errorf("scenario %q: shard %d: %w: raise fleet.mem_mb or shrink workload.objects × object_bytes", sp.Name, s, st.setupErr)
		case st.setupErr != nil:
			return nil, fmt.Errorf("scenario %q: shard %d: %w", sp.Name, s, st.setupErr)
		case st.startNS == 0:
			return nil, fmt.Errorf("scenario %q: shard %d: the preload of %d stores (%d objects of %d bytes each) was still on the wire at %v, so no request was ever generated — raise horizon_ms or shrink workload.objects × object_bytes",
				sp.Name, s, w.Stores, w.Objects, w.ObjectBytes, horizon+drain)
		}
		if !st.done {
			return nil, fmt.Errorf("scenario %q: shard %d did not drain by %v (%d served of %d generated) — raise drain_ms or heal the fleet before the horizon",
				sp.Name, s, horizon+drain, st.served, st.inj.TotalGenerated())
		}
	}

	return collect(sp, seed, fl, shards, bucketNS)
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
	good     []int64 // goodput buckets, summed over shards
	startNS  int64   // when the last shard finished preloading
	horizon  int64
	bucketNS int64
	windows  float64 // ParKernel barrier windows of the whole run
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
	{"generated", func(st *shardState) float64 { return float64(st.inj.TotalGenerated()) }, nil},
	{"served", func(st *shardState) float64 { return float64(st.served) }, nil},
	{"timeouts", func(st *shardState) float64 { return float64(st.timeouts) }, nil},
	{"timeout_frac", nil, func(r *rollup) float64 { return ratio(r.Metrics["timeouts"], r.Metrics["served"]) }},
	{"errors", func(st *shardState) float64 { return float64(st.errs) }, nil},
	{"goodput_rps", nil, func(r *rollup) float64 {
		return ratio(r.Metrics["served"]-r.Metrics["timeouts"], float64(r.horizon-r.startNS)/1e9)
	}},
	{"p50_ms", nil, func(r *rollup) float64 { return r.Hist.QuantileMS(0.50) }},
	{"p99_ms", nil, func(r *rollup) float64 { return r.Hist.QuantileMS(0.99) }},
	{"p999_ms", nil, func(r *rollup) float64 { return r.Hist.QuantileMS(0.999) }},
	{"max_ms", nil, func(r *rollup) float64 { return float64(r.Hist.Max()) / 1e6 }},
	{"mean_ms", nil, func(r *rollup) float64 { return r.Hist.Mean() / 1e6 }},
	{"acked_writes", func(st *shardState) float64 { return float64(st.acked) }, nil},
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
	{"recoveries", func(st *shardState) float64 { return float64(st.sys.Sched.Recoveries.Value()) }, nil},
	{"migrations", func(st *shardState) float64 { return float64(st.migOK) }, nil},
	{"recovery_ms", nil, func(r *rollup) float64 { return recoveryMS(r.Spec, r.good, r.bucketNS, r.startNS, r.horizon) }},
	{"events", func(st *shardState) float64 { return float64(st.sys.K.EventsProcessed()) }, nil},
	{"windows", nil, func(r *rollup) float64 { return r.windows }},
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
	{"slo_windows", func(st *shardState) float64 { return float64(st.mon.WindowsClosed()) }, nil},
	{"slo_breaches", func(st *shardState) float64 { return float64(st.mon.Breaches()) }, nil},
	{"incidents_opened", func(st *shardState) float64 { return float64(st.mon.Opened()) }, nil},
	{"incidents_resolved", func(st *shardState) float64 { return float64(st.mon.Resolved()) }, nil},
	{"incidents_open", func(st *shardState) float64 { return float64(st.mon.OpenCount()) }, nil},
}

// MetricNames is every metric a scenario assertion may reference, in
// report order. Run always populates all of them.
var MetricNames = column(metricTable, func(d metric) string { return d.name })

// collect folds per-shard state into the Outcome, in fixed shard order.
func collect(sp *Spec, seed int64, fl *fleet.Fleet, shards []*shardState, bucketNS int64) (*Outcome, error) {
	horizon := mst(sp.HorizonMS)
	out := &Outcome{Spec: sp, Seed: seed, Pass: true,
		Metrics: make(map[string]float64, len(metricTable))}
	r := rollup{Outcome: out, good: make([]int64, len(shards[0].good)),
		horizon: int64(horizon), bucketNS: bucketNS, windows: float64(fl.PK.Windows())}
	hists := make([]*metrics.LogHistogram, len(shards))
	for s, st := range shards {
		// Seal the SLO plane at the horizon: trailing empty windows
		// close (a tail outage still breaches), incidents still open
		// get their spans clamped.
		st.mon.Finish(horizon)
		out.Incidents = append(out.Incidents, st.mon.Incidents()...)
		if h := st.mon.History(); h != nil {
			out.SLOHistory = append(out.SLOHistory, h)
		}
		out.logs = append(out.logs, st.sys.Trace)
		if st.startNS > r.startNS {
			r.startNS = st.startNS
		}
		hists[s] = st.hist
		for i, v := range st.good {
			r.good[i] += v
		}
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
	out.Trace = fl.Trace()
	return out, nil
}

// recoveryMS measures how long after the last scheduled disturbance
// goodput regained RecoveryFrac of its pre-event baseline. 0 when the
// scenario has no events or no measurable baseline; NeverRecovered when
// no in-horizon bucket after the last event reaches the threshold.
func recoveryMS(sp *Spec, good []int64, bucketNS, startNS, horizon int64) float64 {
	if len(sp.Events) == 0 {
		return 0
	}
	firstNS := int64(mst(sp.Events[0].AtMS))
	lastEnd := int64(0)
	for _, ev := range sp.Events {
		if e := int64(mst(ev.EndMS())); e > lastEnd {
			lastEnd = e
		}
	}
	var sum int64
	var n int
	for i := range good {
		bs, be := int64(i)*bucketNS, int64(i+1)*bucketNS
		if bs >= startNS+bucketNS && be <= firstNS {
			sum += good[i]
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	threshold := sp.RecoveryFrac * float64(sum) / float64(n)
	for i := range good {
		bs, be := int64(i)*bucketNS, int64(i+1)*bucketNS
		if bs < lastEnd || be > horizon {
			continue
		}
		if float64(good[i]) >= threshold {
			return float64(bs-lastEnd) / 1e6
		}
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
			len(f.GPUs), f.GPUsPerMachine(), wl.Trainers.Count, wl.Trainers.ModelMB, wl.Trainers.CheckpointKB)
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

// WriteFlightDump renders the flight-recorder timeline — the last
// flightTail control-plane events of every shard, merged by time then
// shard and tagged with the shard — the artifact qsctl run saves when
// assertions fail or an incident opened.
func (o *Outcome) WriteFlightDump(w io.Writer) error {
	merged, shard := obs.MergeLogs(o.logs...)
	older := make([]int, len(o.logs)) // per shard: events before its tail
	evicted := 0
	for s, l := range o.logs {
		older[s] = max(0, l.Len()-flightTail)
		evicted += older[s]
	}
	if _, err := fmt.Fprintf(w, "flight recorder: %s seed %d (%d entries, %d evicted)\n",
		o.Spec.Name, o.Seed, merged.Len()-evicted, evicted); err != nil {
		return err
	}
	for i, e := range merged.Events() {
		if older[shard[i]] > 0 {
			older[shard[i]]--
			continue
		}
		if _, err := fmt.Fprintf(w, "s%-2d %v\n", shard[i], e); err != nil {
			return err
		}
	}
	return nil
}
