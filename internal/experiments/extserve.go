package experiments

// ext-serve: the million-client open-loop serving scenario. Per-client
// state is the thing this experiment refuses to have: tenants are
// modeled as aggregate nonhomogeneous-Poisson arrival processes
// (internal/load) whose intensity is client count x per-client rate,
// so 2.5 million simulated clients cost O(request rate) — the
// generators never know a client ID exists.
//
// The fleet is the partitioned kernel from ext-scale: 8 shards x 125
// machines (full scale) stitched by a simnet.Partition. Each shard owns
// one load.Injector for its machines — arrivals drawn in batches per
// lookahead-aligned window, keys drawn from per-tenant O(1) Zipfian
// samplers, everything from per-shard RNG streams — and a pool of
// server processes that drain the arrival queue through batched
// mem.getbatch fan-in RPCs to the shard's stores. Latency
// (arrival-to-completion, i.e. queue wait + fan-in service) lands in
// fixed-bucket metrics.LogHistograms: alloc-free to record, merged
// across shards in fixed order, byte-identical at any worker count.
//
// Three phases share the horizon: a diurnal baseline, a flash crowd
// (tenant C's intensity ramps ~5x), and migration-under-load (every
// shard migrates two of its stores to different machines while serving,
// so the migrate-phase p999 shows the blackout cost). A jittered
// workload.Antagonist per shard exercises the injected-RNG interference
// path. Like ext-scale, the run takes its host worker count from
// SetParallelism, and every observable of a run — per-shard events,
// request counts, histograms, merged trace, trace exports — is the same
// at any worker count, which the tests assert.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// serveTenant is one tenant population: clients x perRPS gives the
// offered aggregate rate; keys/theta shape its Zipfian popularity.
type serveTenant struct {
	name    string
	clients float64
	perRPS  float64 // mean per-client request rate, req/s
	keys    uint64  // Zipfian keyspace size
	theta   float64 // Zipf skew
	spike   bool    // rides the flash-crowd multiplier
}

// serveCfg parameterizes the serving fleet.
type serveCfg struct {
	shards     int
	perShard   int // machines per shard
	stores     int // memory proclets per shard
	objsPer    int // preloaded objects per store
	objBytes   int64
	servers    int // server procs per shard
	batchMax   int // max requests per fan-in batch
	poll       time.Duration
	crossEvery int // cross-shard gateway ping every Nth batch
	deadline   time.Duration
	horizon    sim.Time
	slack      sim.Time
	injWindows int     // injector batch window, in lookahead windows
	diurnalAmp float64 // diurnal sine amplitude
	spikeMult  float64 // flash-crowd multiplier
	migratePer int     // stores migrated per shard in the migrate phase
	sampleStep time.Duration
	tenants    []serveTenant
	flashAt    float64
	migrateAt  float64
}

func serveConfig(scale Scale) serveCfg {
	cfg := serveCfg{
		shards:     8,
		perShard:   3,
		stores:     4,
		objsPer:    512,
		objBytes:   256,
		servers:    4,
		batchMax:   32,
		poll:       20 * time.Microsecond,
		crossEvery: 8,
		deadline:   time.Millisecond,
		horizon:    sim.Time(8 * time.Millisecond),
		slack:      sim.Time(8 * time.Millisecond),
		injWindows: 125, // 125 x 2us lookahead = 250us batch windows
		diurnalAmp: 0.3,
		spikeMult:  4,
		migratePer: 2,
		sampleStep: 100 * time.Microsecond,
		flashAt:    0.40,
		migrateAt:  0.70,
		tenants: []serveTenant{
			{name: "A", clients: 12_000, perRPS: 30, keys: 10_000_000, theta: 0.99},
			{name: "B", clients: 8_000, perRPS: 24, keys: 5_000_000, theta: 0.90},
			{name: "C", clients: 5_000, perRPS: 20, keys: 2_000_000, theta: 0.75, spike: true},
		},
	}
	if scale == FullScale {
		cfg.perShard = 125 // 8 x 125 = 1,000 machines
		cfg.stores = 16
		cfg.objsPer = 2048
		cfg.servers = 8
		cfg.batchMax = 64
		cfg.spikeMult = 5
		cfg.migratePer = 4
		cfg.horizon = sim.Time(20 * time.Millisecond)
		cfg.slack = sim.Time(20 * time.Millisecond)
		cfg.sampleStep = 250 * time.Microsecond
		cfg.tenants = []serveTenant{
			{name: "A", clients: 1_200_000, perRPS: 1.5, keys: 10_000_000, theta: 0.99},
			{name: "B", clients: 800_000, perRPS: 1.2, keys: 5_000_000, theta: 0.90},
			{name: "C", clients: 500_000, perRPS: 1.0, keys: 2_000_000, theta: 0.75, spike: true},
		}
	}
	return cfg
}

// servePhases names the three phases; arrival time decides a request's
// phase, so attribution is independent of when service completes.
var servePhases = []string{"diurnal", "flash", "migrate"}

// serveSLO is the always-on streaming SLO plane for the serving fleet:
// half-millisecond windows, a burn-rate ring of 4, paging when the
// windowed p999 blows through 3x the deadline and warning when the
// in-window timeout fraction passes 20%. The monitor is host-side
// arithmetic over completions the servers already observe — it
// schedules no kernel events and consumes no randomness, so enabling
// it cannot move a single gated metric.
func serveSLO(cfg serveCfg, shard int) *slo.Monitor {
	return slo.New(slo.Config{
		Window:  sim.Time(500 * time.Microsecond),
		Windows: 4,
		Rules: []slo.Rule{
			{Kind: slo.P999Above, BoundMS: 3 * float64(cfg.deadline) / 1e6,
				For: 2, Severity: "page"},
			{Kind: slo.ErrorRateAbove, Ceiling: 0.20, For: 2},
		},
		Subject: fmt.Sprintf("s%d", shard),
		Machine: -1,
	})
}

// serveSampleConfig is the tail-based retention policy for the merged
// ext-serve trace: keep trees whose end-to-end extent beats the
// deadline, trees carrying errors, trees overlapping an incident, and
// a seeded 1-in-64 head sample.
func serveSampleConfig(cfg serveCfg) slo.SampleConfig {
	return slo.SampleConfig{
		Seed:   uint64(seeded(37)),
		TailNS: cfg.deadline.Nanoseconds(),
	}
}

func (cfg serveCfg) totalClients() float64 {
	var n float64
	for _, t := range cfg.tenants {
		n += t.clients
	}
	return n
}

func (cfg serveCfg) phaseOf(at sim.Time) int {
	switch {
	case at < sim.Time(float64(cfg.horizon)*cfg.flashAt):
		return 0
	case at < sim.Time(float64(cfg.horizon)*cfg.migrateAt):
		return 1
	default:
		return 2
	}
}

// serveDet is every observable that must be identical at any worker
// count, which the tests compare with reflect.DeepEqual across worker
// counts. Histogram state rides along as snapshots: if a single latency
// bucket shifts between worker counts, the comparison fails.
type serveDet struct {
	ShardEvents []uint64
	Generated   []uint64
	Served      []uint64
	Timeouts    []uint64
	Errors      []uint64
	Migrations  []int64
	StartNS     []int64 // per-shard injection start (after preload)
	Opened      []int   // per-shard SLO incidents opened
	Resolved    []int   // per-shard SLO incidents resolved
	SLOWindows  []int   // per-shard SLO windows closed
	Spans       []int   // per-shard span count (0 when untraced)
	Windows     uint64
	CrossMsgs   uint64
	Phases      []metrics.LogSnapshot // merged across shards, per phase
	Overall     metrics.LogSnapshot
	Trace       []string
}

type serveOutcome struct {
	det     serveDet
	phases  []*metrics.LogHistogram
	overall *metrics.LogHistogram

	// Trace exports, only when a trace directory is configured: the
	// full merged Chrome trace, its tail-sampled subset, and the
	// sampler's retention accounting.
	fullTrace    []byte
	sampledTrace []byte
	sampleStats  slo.SampleStats
	incidents    []slo.Incident
}

// serveShard is one shard's serving state, written only in its shard's
// context.
type serveShard struct {
	fleet.Tally
	sys      *core.System
	stores   []*core.MemoryProclet
	inj      *load.Injector
	queue    load.Queue
	migOK    int64
	startNS  int64
	setupErr error
	done     bool
}

// serveServer is one server: a fleet.Server whose every crossEvery-th
// batch ends with a cross-shard gateway read, which keeps the fleet
// coupled through the partition mailboxes. The read is stepped from the
// Serve loop's stage like the store calls.
type serveServer struct {
	*fleet.Server
	cfg     *serveCfg
	shard   int
	st      *serveShard
	net     *simnet.Partition
	batches int
	xc      simnet.PartitionCall
	xget    bool // xc is in flight
}

func (sv *serveServer) Begin(batch []load.Request) sim.Wait {
	return sv.served(sv.Server.Begin(batch))
}

func (sv *serveServer) Step() sim.Wait {
	if !sv.xget {
		return sv.served(sv.Server.Step())
	}
	w := sv.xc.Stage()
	if w == sim.Resume {
		sv.xget = false
		if _, err := sv.xc.End(); err != nil {
			sv.st.Errors++
		}
	}
	return w
}

// served passes on the fan-in's wait w until its batch is served, then
// starts the gateway read if this batch has one.
func (sv *serveServer) served(w sim.Wait) sim.Wait {
	if w != sim.Resume {
		return w
	}
	if sv.batches++; sv.batches%sv.cfg.crossEvery != 0 {
		return sim.Resume
	}
	sv.st.sys.Obs.SetNext(sv.Root())
	xc, err := sv.net.StartCall(simnet.ShardNode{Shard: sv.shard, Node: 0},
		simnet.ShardNode{Shard: (sv.shard + 1) % sv.cfg.shards, Node: 0},
		"xget", simnet.Message{Bytes: 64})
	if err != nil {
		sv.st.Errors++
		return sim.Resume
	}
	sv.xc, sv.xget = xc, true
	return sv.Step()
}

// runServeOnce builds the partitioned serving fleet and drives it with
// the given number of host workers.
func runServeOnce(cfg serveCfg, workers int) (serveOutcome, error) {
	var out serveOutcome
	fl := fleet.New(seeded(37), cfg.shards, cfg.perShard, cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20})
	defer fl.Close()
	fl.PK.SetWorkers(workers)
	net := fl.Partition() // the cross-shard gateway: this fleet runs windowed
	injWindow := time.Duration(fl.PK.Lookahead()) * time.Duration(cfg.injWindows)

	// Shared immutable per-tenant samplers: each shard draws from its
	// own RNG streams, and load.NewZipf memoises the zeta precompute, so
	// a rerun in the same process does not sum it again.
	zipfs := make([]*load.Zipf, len(cfg.tenants))
	for i, t := range cfg.tenants {
		zipfs[i] = load.NewZipf(t.keys, t.theta)
	}

	shards := make([]*serveShard, cfg.shards)
	// Shard-local latency histograms, [shard] (each shard's Tally.Hist)
	// and [phase][shard].
	overall := make([]*metrics.LogHistogram, cfg.shards)
	phases := make([][]*metrics.LogHistogram, len(servePhases))
	for ph := range phases {
		phases[ph] = make([]*metrics.LogHistogram, cfg.shards)
	}
	for s, sys := range fl.Shards {
		k := sys.K
		if traceDir != "" {
			// Per-shard tracer with a disjoint ID base: shard s owns IDs
			// s<<32 .. (s+1)<<32, so obs.Concat merges shard timelines
			// into one globally ordered export.
			sys.EnableTracingAt(obs.SpanID(s) << 32)
		}
		overall[s] = metrics.NewLogHistogram(fmt.Sprintf("s%d.lat", s))
		for ph, name := range servePhases {
			phases[ph][s] = metrics.NewLogHistogram(fmt.Sprintf("s%d.lat.%s", s, name))
		}
		st := &serveShard{sys: sys, Tally: fleet.Tally{
			Hist:     overall[s],
			Mon:      serveSLO(cfg, s),
			Deadline: int64(cfg.deadline),
			Horizon:  cfg.horizon,
			OnServe: func(arrived, done sim.Time, _ bool) {
				phases[cfg.phaseOf(arrived)][s].Record(int64(done - arrived))
			},
		}}
		shards[s] = st
		st.Mon.Log = sys.Trace
		st.Mon.Tracer = sys.Obs
		sys.Start()

		// Machine 0 is the shard's front end (servers + cross-shard
		// gateway); the stores go on the others.
		var err error
		if st.stores, err = fleet.PlaceStores(sys, fmt.Sprintf("s%d-store-%%d", s), cfg.stores, 1, 1); err != nil {
			return out, err
		}
		// The stores hold key i as int64(i); nothing writes to them.
		ledger := fleet.NewLedger(st.stores, cfg.objBytes, func(key uint64) int64 { return int64(key) })
		st.sys.Cluster.Node(0).HandleFast("xget", func(req simnet.Message) (simnet.Message, error) {
			return simnet.Message{Payload: int64(st.Served), Bytes: 64}, nil
		})

		// The shard's injector: tenant curves are the fleet intensity
		// divided by the shard count, diurnal-modulated, with tenant C
		// riding the flash-crowd multiplier. Arrivals land in the shard's
		// serving queue; servers drain it.
		st.inj = load.NewInjector(k, injWindow, st.queue.Push)
		period := time.Duration(cfg.horizon)
		spikeF := load.Spike(
			sim.Time(float64(cfg.horizon)*cfg.flashAt),
			period/10, period*3/20, period/10, cfg.spikeMult)
		for ti, t := range cfg.tenants {
			base := load.Diurnal(t.clients*t.perRPS/float64(cfg.shards), cfg.diurnalAmp, period)
			f := base
			if t.spike {
				f = func(at sim.Time) float64 { return base(at) * spikeF(at) }
			}
			st.inj.AddTenant(t.name, load.Sampled(cfg.horizon, cfg.sampleStep, f), zipfs[ti])
		}

		// A jittered high-priority antagonist on one store machine: its
		// interference pattern comes from an injected per-shard RNG, so it
		// replays identically at any worker count.
		ant := &workload.Antagonist{
			Machine: st.sys.Cluster.Machine(1),
			Period:  2 * time.Millisecond, Busy: 500 * time.Microsecond,
			Cores: 2, Jitter: 200 * time.Microsecond,
			Rng: rand.New(rand.NewSource(seeded(41) + int64(s))),
		}
		ant.Start(k)

		// Preload, then open the floodgates: injection starts the moment
		// the stores are populated (a deterministic virtual-time instant).
		k.Spawn(fmt.Sprintf("s%d-setup", s), func(p *sim.Proc) {
			ids := make([]uint64, cfg.objsPer)
			vals := make([]core.Value, cfg.objsPer)
			sizes := make([]int64, cfg.objsPer)
			for i := range ids {
				ids[i] = uint64(i)
				vals[i] = core.Int(int64(i))
				sizes[i] = cfg.objBytes
			}
			for i, mp := range st.stores {
				if err := mp.PutBatch(p, 0, &core.Batch{IDs: ids, Vals: vals, Sizes: sizes}); err != nil {
					st.setupErr = fmt.Errorf("preload of store %d (%d objects of %d bytes): %w", i, cfg.objsPer, cfg.objBytes, err)
					return
				}
			}
			st.startNS = int64(p.Now())
			st.inj.Start(p.Now(), cfg.horizon)
		})

		// Server pool: batched fan-in (serveServer).
		var wg sim.WaitGroup
		for srv := 0; srv < cfg.servers; srv++ {
			wg.Add(1)
			k.Spawn(fmt.Sprintf("s%d-server-%d", s, srv), func(p *sim.Proc) {
				defer wg.Done()
				sv := &serveServer{Server: fleet.NewServer(sys, &st.Tally, ledger, cfg.objsPer, 0),
					cfg: &cfg, shard: s, st: st, net: net}
				st.queue.Serve(p, cfg.horizon, cfg.poll, cfg.batchMax, sv)
			})
		}

		// Migration under load: partway through the migrate phase each
		// shard moves migratePer stores to new machines while the servers
		// keep draining.
		k.Spawn(fmt.Sprintf("s%d-migrator", s), func(p *sim.Proc) {
			p.Sleep(time.Duration(float64(cfg.horizon) * (cfg.migrateAt + 0.05)))
			for i := 0; i < cfg.migratePer && i < len(st.stores); i++ {
				from := st.stores[i].Location()
				to := cluster.MachineID(1 + (int(from)+((cfg.perShard-1)+1)/2-1)%(cfg.perShard-1))
				if to == from {
					to = cluster.MachineID(1 + int(from)%(cfg.perShard-1))
				}
				if err := st.sys.Runtime.Migrate(p, st.stores[i].ID(), to); err == nil {
					st.migOK++
				}
			}
		})

		k.Spawn(fmt.Sprintf("s%d-verify", s), func(p *sim.Proc) {
			wg.Wait(p)
			st.done = true
		})
	}

	fl.RunUntil(cfg.horizon + cfg.slack)

	det := serveDet{
		ShardEvents: fl.Events(),
		Generated:   make([]uint64, cfg.shards),
		Served:      make([]uint64, cfg.shards),
		Timeouts:    make([]uint64, cfg.shards),
		Errors:      make([]uint64, cfg.shards),
		Migrations:  make([]int64, cfg.shards),
		StartNS:     make([]int64, cfg.shards),
		Opened:      make([]int, cfg.shards),
		Resolved:    make([]int, cfg.shards),
		SLOWindows:  make([]int, cfg.shards),
		Spans:       make([]int, cfg.shards),
	}
	for s, st := range shards {
		if st.setupErr != nil {
			return out, fmt.Errorf("ext-serve: shard %d: %w", s, st.setupErr)
		}
		if !st.done {
			return out, fmt.Errorf("ext-serve: shard %d did not drain by %v (%d/%d served)",
				s, cfg.horizon+cfg.slack, st.Served, st.inj.TotalGenerated())
		}
		st.Mon.Finish(cfg.horizon)
		det.Generated[s] = st.inj.TotalGenerated()
		det.Served[s] = st.Served
		det.Timeouts[s] = st.Timeouts
		det.Errors[s] = st.Errors
		det.Migrations[s] = st.migOK
		det.StartNS[s] = st.startNS
		det.Opened[s] = st.Mon.Opened()
		det.Resolved[s] = st.Mon.Resolved()
		det.SLOWindows[s] = st.Mon.WindowsClosed()
		det.Spans[s] = st.sys.Obs.Len()
		out.incidents = append(out.incidents, st.Mon.Incidents()...)
	}
	det.Windows = fl.PK.Windows()
	det.CrossMsgs = uint64(net.CrossCalls.Value())

	// Merge shard-local histograms in fixed shard order: integer bucket
	// addition, byte-identical at any worker count.
	out.overall = metrics.MergeLogHistograms("latency", overall...)
	det.Overall = out.overall.Snapshot()
	for ph, name := range servePhases {
		h := metrics.MergeLogHistograms("latency."+name, phases[ph]...)
		out.phases = append(out.phases, h)
		det.Phases = append(det.Phases, h.Snapshot())
	}
	det.Trace = fl.Trace()

	// Traced runs: concatenate the per-shard tracers (disjoint ID
	// ranges, so the merge is a deterministic sort), run tail-based
	// sampling against the run's incidents, and render both traces.
	if traceDir != "" {
		tracers := make([]*obs.Tracer, cfg.shards)
		for s, st := range shards {
			tracers[s] = st.sys.Obs
		}
		merged := obs.Concat(tracers...)
		sampled, stats := slo.Filter(merged, out.incidents, serveSampleConfig(cfg))
		var fb, sb bytes.Buffer
		if err := obs.WriteChromeTrace(&fb, merged, nil); err != nil {
			return out, err
		}
		if err := obs.WriteChromeTrace(&sb, sampled, nil); err != nil {
			return out, err
		}
		out.fullTrace, out.sampledTrace, out.sampleStats = fb.Bytes(), sb.Bytes(), stats
	}
	out.det = det
	return out, nil
}

func runExtServe(scale Scale) (*Result, error) {
	cfg := serveConfig(scale)
	res := newResult("ext-serve", "extension: million-client open-loop serving with tail-latency telemetry")
	res.addf("fleet: %d shards x %d machines = %d machines; %d stores + %d servers per shard",
		cfg.shards, cfg.perShard, cfg.shards*cfg.perShard, cfg.stores, cfg.servers)
	for _, t := range cfg.tenants {
		extra := ""
		if t.spike {
			extra = fmt.Sprintf(" [flash crowd x%.0f]", cfg.spikeMult)
		}
		res.addf("tenant %s: %.0f clients x %.1f req/s, zipf(theta=%.2f) over %d keys%s",
			t.name, t.clients, t.perRPS, t.theta, t.keys, extra)
	}

	ref, err := runServeOnce(cfg, workers())
	if err != nil {
		return nil, err
	}
	res.EventsProcessed = sumU64(ref.det.ShardEvents)
	res.Trace = ref.det.Trace

	var generated, served, timeouts, errs uint64
	var migrations int64
	startNS := ref.det.StartNS[0]
	for s := 0; s < cfg.shards; s++ {
		generated += ref.det.Generated[s]
		served += ref.det.Served[s]
		timeouts += ref.det.Timeouts[s]
		errs += ref.det.Errors[s]
		migrations += ref.det.Migrations[s]
		if ref.det.StartNS[s] > startNS {
			startNS = ref.det.StartNS[s]
		}
	}
	durS := float64(int64(cfg.horizon)-startNS) / 1e9
	goodput := float64(served-timeouts) / durS
	timeoutRate := 0.0
	if served > 0 {
		timeoutRate = float64(timeouts) / float64(served)
	}

	res.addf("requests: %d generated, %d served, %d past the %v deadline (%.4f%%), %d errors",
		generated, served, timeouts, cfg.deadline, 100*timeoutRate, errs)
	res.addf("goodput %.0f req/s over the %.2f ms serving window", goodput, durS*1e3)
	res.addf("%s", ref.overall.String())
	for ph, name := range servePhases {
		h := ref.phases[ph]
		res.addf("phase %-7s n=%-6d p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms",
			name, h.Count(), h.QuantileMS(0.50), h.QuantileMS(0.99),
			h.QuantileMS(0.999), float64(h.Max())/1e6)
	}
	res.addf("migration under load: %d stores moved; %d sync windows, %d cross-shard RPCs",
		migrations, ref.det.Windows, ref.det.CrossMsgs)

	opened, resolved, sloWindows := 0, 0, 0
	for s := 0; s < cfg.shards; s++ {
		opened += ref.det.Opened[s]
		resolved += ref.det.Resolved[s]
		sloWindows += ref.det.SLOWindows[s]
	}
	res.addf("slo plane: %d windows closed across shards; %d incidents opened, %d resolved",
		sloWindows, opened, resolved)
	res.set("slo_windows", float64(sloWindows))
	res.set("incidents_opened", float64(opened))
	res.set("incidents_resolved", float64(resolved))

	if traceDir != "" {
		st := ref.sampleStats
		if st.KeptSpans*10 > st.FullSpans {
			return nil, fmt.Errorf(
				"ext-serve: tail sampling kept %d of %d spans — misses the 10x reduction bound",
				st.KeptSpans, st.FullSpans)
		}
		res.addf("trace sampling: %d spans in %d trees -> %d spans in %d trees (%.1fx reduction): %d tail, %d err, %d incident, %d head",
			st.FullSpans, st.Trees, st.KeptSpans, st.Kept,
			float64(st.FullSpans)/float64(st.KeptSpans),
			st.Tail, st.Err, st.Incident, st.Head)
		res.set("trace_spans_full", float64(st.FullSpans))
		res.set("trace_spans_sampled", float64(st.KeptSpans))
		res.set("trace_trees_kept", float64(st.Kept))
		full := filepath.Join(traceDir, "ext-serve.full.trace.json")
		if err := os.WriteFile(full, ref.fullTrace, 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(traceDir, "ext-serve.trace.json"), ref.sampledTrace, 0o644); err != nil {
			return nil, err
		}
	}

	res.set("machines", float64(cfg.shards*cfg.perShard))
	res.set("shards", float64(cfg.shards))
	res.set("clients", cfg.totalClients())
	res.set("tenants", float64(len(cfg.tenants)))
	res.set("requests", float64(generated))
	res.set("served", float64(served))
	res.set("timeouts", float64(timeouts))
	res.set("timeout_rate", timeoutRate)
	res.set("errors", float64(errs))
	res.set("goodput_rps", goodput)
	res.set("p50_ms", ref.overall.QuantileMS(0.50))
	res.set("p99_ms", ref.overall.QuantileMS(0.99))
	res.set("p999_ms", ref.overall.QuantileMS(0.999))
	for ph, name := range servePhases {
		res.set("p999_ms_"+name, ref.phases[ph].QuantileMS(0.999))
	}
	res.set("migrations", float64(migrations))
	res.set("windows", float64(ref.det.Windows))
	res.set("cross_msgs", float64(ref.det.CrossMsgs))
	res.set("events", float64(res.EventsProcessed))
	return res, nil
}
