// Package core implements Quicksand, the paper's primary contribution:
// resource proclets — proclets specialized to consume a single resource
// type — plus the adaptive mechanisms that keep them fungible: a
// two-level scheduler (fast per-machine reactors, slow global
// rebalancing with affinity), adaptive splitting and merging to
// preserve migration-friendly granularity, and distributed pointers
// connecting compute to memory.
//
// Layering: core sits on the Nu proclet substrate (internal/proclet),
// which sits on simulated machines (internal/cluster) and network
// (internal/simnet), all driven by the deterministic virtual-time
// kernel (internal/sim). Higher-level abstractions — sharded data
// structures (internal/sharded), the distributed thread pool
// (internal/dtp), and flat storage (internal/storage) — build on core.
package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Config tunes the Quicksand control plane.
type Config struct {
	// Seed drives all randomized decisions deterministically.
	Seed int64
	// Net configures the cluster fabric.
	Net simnet.Config
	// Proclet configures the Nu substrate's cost model.
	Proclet proclet.Config

	// LocalPeriod is the fast per-machine reactor's sampling period
	// (pressure detection and evacuation).
	LocalPeriod time.Duration
	// GlobalPeriod is the slow global rebalancer's period (long-term
	// placement and affinity-driven colocation).
	GlobalPeriod time.Duration
	// AdaptPeriod is how often registered adaptives (split/merge
	// policies) are evaluated.
	AdaptPeriod time.Duration

	// CPUHighWater is the pressure (runnable tasks per available core)
	// above which a machine evacuates compute proclets.
	CPUHighWater float64
	// CPULowWater is the pressure below which a machine may receive
	// evacuated compute proclets.
	CPULowWater float64
	// MemHighWater is the memory utilization fraction above which a
	// machine evacuates memory proclets.
	MemHighWater float64

	// TargetMigrationLatency bounds how long migrating any single
	// memory proclet may take; the split threshold MaxShardBytes is
	// derived from it and the NIC bandwidth (§3.3).
	TargetMigrationLatency time.Duration

	// AffinityBytes is the communication volume between two proclets,
	// per global period, above which the rebalancer tries to colocate
	// them.
	AffinityBytes int64

	// ComputeProcletHeap is the accounted heap size of a compute
	// proclet (task queue and scratch space); small so they migrate in
	// well under a millisecond.
	ComputeProcletHeap int64

	// DisableFastPath turns off the per-machine reactors (two-level
	// scheduling ablation: global-only).
	DisableFastPath bool
	// DisableSlowPath turns off the global rebalancer and affinity
	// loop (two-level scheduling ablation: local-only).
	DisableSlowPath bool
}

// DefaultConfig returns the configuration used throughout the paper
// reproduction experiments.
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		Net:                    simnet.DefaultConfig(),
		Proclet:                proclet.DefaultConfig(),
		LocalPeriod:            200 * time.Microsecond,
		GlobalPeriod:           50 * time.Millisecond,
		AdaptPeriod:            2 * time.Millisecond,
		CPUHighWater:           1.25,
		CPULowWater:            0.9,
		MemHighWater:           0.92,
		TargetMigrationLatency: 5 * time.Millisecond,
		AffinityBytes:          1 << 20,
		ComputeProcletHeap:     64 << 10,
	}
}

// MaxShardBytes is the memory-proclet size cap implied by the target
// migration latency at the configured NIC bandwidth.
func (c Config) MaxShardBytes() int64 {
	return int64(float64(c.Net.Bandwidth) * c.TargetMigrationLatency.Seconds())
}

// System is a running Quicksand deployment: the cluster, the proclet
// runtime, and the scheduler, all on one simulation kernel.
type System struct {
	K       *sim.Kernel
	Cluster *cluster.Cluster
	Runtime *proclet.Runtime
	Sched   *Scheduler
	Trace   *obs.Log

	// Obs records causal spans when EnableTracing has been called; Tel
	// samples resource telemetry when EnableTelemetry has. Both are nil
	// by default — every instrumentation site is nil-safe.
	Obs *obs.Tracer
	Tel *obs.Telemetry

	cfg       Config
	ownKernel bool         // Close tears the kernel down only if we made it
	rebuild   Rebuilder    // memory-proclet reconstruction hook (recovery.go)
	repl      *ReplManager // durability plane, nil unless enabled (replication.go)

	// Scratch of the memory proclets' handlers (memproclet.go). Each is
	// filled and consumed within one event, so one serves every proclet.
	ids     []uint64    // a range walk's ids, ascending
	undo    []displaced // what a PutBatch has overwritten so far
	intArgs []*intArg   // free cells for PutInt
}

// NewSystem builds a Quicksand system over machines with the given
// shapes, on a fresh kernel seeded from cfg.Seed. The scheduler is
// created but idle until Start.
func NewSystem(cfg Config, machines []cluster.MachineConfig) *System {
	s := NewSystemOnKernel(sim.NewKernel(cfg.Seed), cfg, machines)
	s.ownKernel = true
	return s
}

// NewSystemOnKernel builds a Quicksand system on a caller-supplied
// kernel. This is how partitioned fleets are assembled: one System per
// shard, each on its own sim.ParKernel shard kernel, stitched together
// with a simnet.Partition. The caller owns the kernel's lifecycle —
// Close on a system built this way is a no-op.
func NewSystemOnKernel(k *sim.Kernel, cfg Config, machines []cluster.MachineConfig) *System {
	cl := cluster.New(k, cfg.Net)
	for _, mc := range machines {
		cl.AddMachine(mc)
	}
	tl := obs.NewLog()
	s := &System{
		K:       k,
		Cluster: cl,
		Runtime: proclet.NewRuntime(cl, cfg.Proclet, tl),
		Trace:   tl,
		cfg:     cfg,
	}
	s.Sched = newScheduler(s)
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// EnableTracing attaches a causal span tracer to every layer (fabric
// RPCs, proclet invocations and migrations, scheduler decisions,
// replication). Span recording is synchronous bookkeeping — it
// schedules no kernel events — so it never perturbs the simulated
// schedule. Idempotent; call before Start.
func (s *System) EnableTracing() *obs.Tracer {
	return s.EnableTracingAt(0)
}

// EnableTracingAt is EnableTracing with an explicit span-ID base:
// shard s of a partitioned run passes obs.SpanID(s)<<32 so the merged
// export has globally unique, shard-sortable span IDs. Idempotent;
// call before Start.
func (s *System) EnableTracingAt(base obs.SpanID) *obs.Tracer {
	if s.Obs == nil {
		s.Obs = obs.NewTracerWithBase(s.K, base)
		s.Cluster.Fabric.SetTracer(s.Obs)
		s.Runtime.SetTracer(s.Obs)
	}
	return s.Obs
}

// EnableTelemetry starts sampling per-machine CPU/memory/net
// utilization (and per-proclet queueing delay for compute proclets
// created afterwards) every period. Unlike tracing, sampling schedules
// one kernel event per tick, so runs that compare kernel event counts
// must leave it off. Idempotent; call before Start.
func (s *System) EnableTelemetry(period time.Duration) *obs.Telemetry {
	if s.Tel != nil {
		return s.Tel
	}
	s.Tel = obs.NewTelemetry(s.K, period)
	for _, m := range s.Cluster.Machines() {
		m := m
		id := int(m.ID)
		s.Tel.Register(fmt.Sprintf("m%d.cpu_util", id), id, m.Utilization)
		s.Tel.Register(fmt.Sprintf("m%d.mem_frac", id), id, func() float64 {
			if cap := m.MemCapacity(); cap > 0 {
				return float64(m.MemUsed()) / float64(cap)
			}
			return 0
		})
		n := s.Cluster.Node(m.ID)
		s.Tel.Register(fmt.Sprintf("m%d.net_tx_bytes", id), id, func() float64 {
			return float64(n.TxBytes.Value())
		})
		s.Tel.Register(fmt.Sprintf("m%d.net_rx_bytes", id), id, func() float64 {
			return float64(n.RxBytes.Value())
		})
	}
	// Compute proclets created before telemetry was enabled, in ID
	// order for deterministic series ordering.
	for _, pi := range s.Sched.compute {
		if cp, ok := pi.pr.Data.(*ComputeProclet); ok {
			s.registerComputeTelemetry(cp)
		}
	}
	s.Tel.Start()
	return s.Tel
}

// Close ends the simulation and releases every goroutine of the
// kernel: pooled workers and the daemons still parked (reactors, the
// global and adaptation loops, ping loops). Call it when done
// simulating on this system; experiment sweeps and benchmark loops
// that build many systems would otherwise accumulate a fleet's worth of
// parked goroutines per system for the life of the host process. No-op for systems built
// on a caller-owned kernel (NewSystemOnKernel) — close that kernel (or
// its ParKernel) instead.
func (s *System) Close() {
	if s.ownKernel {
		s.K.Close()
	}
}

// Start launches the scheduler's control loops. Call once, before or
// during the simulation run.
func (s *System) Start() { s.Sched.start() }

// Client returns an external caller bound to a machine (for example an
// ingest frontend or an experiment driver colocated with machine m).
func (s *System) Client(m cluster.MachineID) *Client {
	return &Client{sys: s, machine: m}
}

// Client is an external (non-proclet) invoker pinned to a machine.
type Client struct {
	sys     *System
	machine cluster.MachineID
}

// Machine returns the machine the client runs on.
func (c *Client) Machine() cluster.MachineID { return c.machine }

// Invoke calls a proclet method from this client's machine.
func (c *Client) Invoke(p *sim.Proc, target proclet.ID, method string, arg proclet.Msg) (proclet.Msg, error) {
	return c.sys.Runtime.Invoke(p, c.machine, 0, target, method, arg)
}
