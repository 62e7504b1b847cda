package main

// The benchmark's names: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatchesDefs keeps the
// two in step.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"serve-read", "partitioned-fleet fast path: load, simnet fast dispatch, memory proclet, LogHistogram and the 8-shard window barrier do nearly all the work"},
	{"serve-write-rf2", "same serving layers used differently: replicated writes, log shipping, heartbeats, leases, promotion and resync on 2 shards, where the window barrier barely matters"},
	{"paper-figs", "the paper's own evaluation on the sequential kernel: blocking Proc handoffs, processor sharing, compute proclets, split/merge, migration; bypasses ParKernel, load and replication"},
	{"scenario-matrix", "72 short setup-dominated scenario runs (parse, fleet build, preload, verify, cold pools) across the fault, GPU and SLO planes; work moved into set-up shows here"},
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none. Exact marks per-layer values that are a pure function of
// (workload, seed): two runs of one commit must print the same digits,
// and a change that only speeds the simulator up must not move them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// All host-side: simulated results repeat exactly per seed and sit in
// the per-layer list (sim.p999_ms, sim.goodput_rps, load.failed_frac),
// because an end-to-end metric must be non-zero on every workload and a
// log-bucketed p999 reads the same on most seeds. wall_s and setup_s are
// seconds scaled to a reference host (calib.go). Each bound is at least
// three times the widest run-to-run spread measured on the 2-core VM the
// benchmark was written on, quiet or beside noisy neighbours (README.md,
// "Measured run-to-run spread").
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "allocs", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// paperFigs is the paper-figs workload's experiment list, in run order.
var paperFigs = []string{
	"fig1", "fig3", "abl-migration", "abl-split", "abl-prefetch", "abl-sched",
	"abl-locality", "abl-granularity", "abl-reactor", "abl-postcopy", "ext-harvest",
}

// cpuShares are the buckets CPU-profile samples are attributed to: one
// per internal package plus the Go runtime split by what it was doing.
var cpuShares = []string{
	"sim", "simnet", "cluster", "proclet", "core", "replication", "sharded", "load",
	"metrics", "obs", "scenario", "fault", "gpu", "experiments",
	"runtime_gc", "runtime_malloc", "runtime_sched", "other",
}

// counterDefs are the per-layer metrics taken from each workload's own
// counters and from the harness's timings of the traced pass.
var counterDefs = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "sim.par.windows", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.par.events_per_window", Unit: "count", Better: "higher", Exact: true},
	{Name: "sim.gomaxprocs2_wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.par.p2_wall_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.p999_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "sim.goodput_rps", Unit: "1/s", Better: "higher", Exact: true},
	{Name: "load.generated", Unit: "count", Better: "higher", Exact: true},
	{Name: "load.failed_frac", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.acked_writes", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.promotions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.recoveries", Unit: "count", Better: "lower", Exact: true},
	{Name: "proclet.migrations", Unit: "count", Better: "higher", Exact: true},
	{Name: "gpu.trainer_steps", Unit: "count", Better: "higher", Exact: true},
	{Name: "obs.slo_windows", Unit: "count", Better: "higher", Exact: true},
	{Name: "scenario.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "scenario.run_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// perLayer is the full per-layer list in report order: counters, one
// host time per paper-figs experiment, CPU shares, then the probes.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), counterDefs...)
	for _, id := range paperFigs {
		defs = append(defs, metricDef{Name: "experiments." + id + "_ms", Unit: "ms", Better: "lower"})
	}
	for _, s := range cpuShares {
		defs = append(defs, metricDef{Name: "cpu_share." + s, Unit: "ratio", Better: "lower"})
	}
	for _, p := range probes {
		defs = append(defs, metricDef{Name: p.metric, Unit: p.unit, Better: "lower"})
		defs = append(defs, metricDef{Name: p.allocs, Unit: "count", Better: "lower"})
		if p.simMetric != "" {
			defs = append(defs, metricDef{Name: p.simMetric, Unit: "us", Better: "lower", Exact: true})
		}
	}
	return defs
}()
