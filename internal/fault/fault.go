// Package fault injects failures into a simulated Quicksand cluster —
// machine crashes and restarts, network partitions, latency spikes and
// message loss — from a declarative, seeded schedule. Because the
// simulation kernel is deterministic and all randomness (schedule
// generation, drop decisions, retry jitter) derives from the kernel
// RNG, a chaos run is exactly reproducible from its seed: the same
// faults land at the same virtual instants and the system takes the
// same recovery actions, event for event.
//
// The injector only breaks things. Recovery — orphan re-placement,
// memory reconstruction, load shedding — belongs to the control plane
// (core.System.AttachInjector wires its handlers into the hooks here).
package fault

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Op is a fault operation.
type Op int

// Fault operations.
const (
	// OpCrash fail-stops machine A: its node drops off the fabric
	// (in-flight RPCs fail with ErrNodeDown), its CPU tasks are retired,
	// its memory contents are lost.
	OpCrash Op = iota
	// OpRestart brings machine A back empty: node up, zero memory, no
	// proclets. Recovery re-places work onto it.
	OpRestart
	// OpPartition cuts the link between machines A and B symmetrically.
	OpPartition
	// OpDegrade adds Extra latency and Drop probability to the A–B link
	// without cutting it.
	OpDegrade
	// OpHeal clears any link fault between A and B.
	OpHeal
	// OpGPUXid fatally fails GPU Gpu on machine A with error code Xid:
	// the device stops executing and its memory contents are lost.
	OpGPUXid
	// OpGPUThrottle degrades GPU Gpu on machine A without killing it:
	// Factor is a multiplicative thermal slowdown (>= 1), and
	// StallEvery/Stall optionally add an ECC stutter (every Nth kernel
	// stalls for Stall).
	OpGPUThrottle
	// OpGPUHeal clears all gray-failure state on GPU Gpu of machine A.
	OpGPUHeal
	// OpGPUReclaim takes spot GPU Gpu on machine A back (memory stays
	// readable for evacuation); OpGPUReturn hands it back.
	OpGPUReclaim
	OpGPUReturn
)

func (o Op) String() string {
	switch o {
	case OpCrash:
		return "crash"
	case OpRestart:
		return "restart"
	case OpPartition:
		return "partition"
	case OpDegrade:
		return "degrade"
	case OpHeal:
		return "heal"
	case OpGPUXid:
		return "gpu_xid"
	case OpGPUThrottle:
		return "gpu_throttle"
	case OpGPUHeal:
		return "gpu_heal"
	case OpGPUReclaim:
		return "gpu_reclaim"
	case OpGPUReturn:
		return "gpu_return"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Event is one scheduled fault. A is the target machine; B is the peer
// for link faults (ignored for crash/restart). Extra and Drop apply to
// OpDegrade only. Gpu selects the device on machine A for the OpGPU*
// ops; Xid carries the device error code for OpGPUXid; Factor,
// StallEvery and Stall parameterize OpGPUThrottle.
type Event struct {
	At    sim.Time
	Op    Op
	A, B  cluster.MachineID
	Extra time.Duration
	Drop  float64

	Gpu        int
	Xid        int
	Factor     float64
	StallEvery int
	Stall      time.Duration
}

// Schedule is a list of fault events. Order does not matter; Install
// sorts by time (stably, so same-instant events keep their declared
// order).
type Schedule []Event

// Injector applies a fault schedule to a cluster. Hooks let the control
// plane react the instant a fault lands — the injector itself performs
// only the mechanical state change.
type Injector struct {
	k *sim.Kernel
	c *cluster.Cluster
	t *obs.Log

	// HookCrash runs after machine m fail-stops (node down, tasks
	// retired, memory wiped). The control plane orphans and re-places
	// the machine's proclets here.
	HookCrash func(m cluster.MachineID)
	// HookGPU runs after any GPU fault op changes device state on
	// machine m's GPU gpu (xid, throttle, heal, reclaim, return). A GPU
	// fleet kicks its watcher here so reaction latency is not quantized
	// to the watch period.
	HookGPU func(m cluster.MachineID, gpu int)

	// Counters of applied faults.
	Crashes    metrics.Counter
	Restarts   metrics.Counter
	Partitions metrics.Counter
	Degrades   metrics.Counter
	Heals      metrics.Counter

	// GPU gray-failure counters.
	GPUXids      metrics.Counter
	GPUThrottles metrics.Counter
	GPUHeals     metrics.Counter
	GPUReclaims  metrics.Counter
	GPUReturns   metrics.Counter
}

// New creates an injector for the cluster. If the fabric has no default
// call timeout, one is set (2ms): without a deadline, an RPC whose
// reply is lost to a partition could hang forever, and the no-hang
// guarantee is the point of running under the injector.
func New(k *sim.Kernel, c *cluster.Cluster, tl *obs.Log) *Injector {
	if c.Fabric.Config().CallTimeout <= 0 {
		c.Fabric.SetCallTimeout(2 * time.Millisecond)
	}
	return &Injector{k: k, c: c, t: tl}
}

// Install schedules every event in s on the kernel. It may be called
// before or during the run, multiple times.
func (in *Injector) Install(s Schedule) {
	sorted := make(Schedule, len(s))
	copy(sorted, s)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, ev := range sorted {
		in.k.Schedule(ev.At, func() { in.Apply(ev) })
	}
}

// Apply executes one fault event immediately.
func (in *Injector) Apply(ev Event) {
	switch ev.Op {
	case OpCrash:
		in.crash(ev.A)
	case OpRestart:
		in.restart(ev.A)
	case OpPartition:
		in.Partitions.Inc()
		in.c.Fabric.SetLinkFault(simnet.NodeID(ev.A), simnet.NodeID(ev.B),
			simnet.LinkFault{Partitioned: true})
		in.t.Emitf(in.k.Now(), obs.KindFault, "link", int(ev.A), int(ev.B), "partition")
	case OpDegrade:
		in.Degrades.Inc()
		in.c.Fabric.SetLinkFault(simnet.NodeID(ev.A), simnet.NodeID(ev.B),
			simnet.LinkFault{ExtraLatency: ev.Extra, DropProb: ev.Drop})
		in.t.Emitf(in.k.Now(), obs.KindFault, "link", int(ev.A), int(ev.B),
			"degrade latency+%v drop=%.2f", ev.Extra, ev.Drop)
	case OpHeal:
		in.Heals.Inc()
		in.c.Fabric.ClearLinkFault(simnet.NodeID(ev.A), simnet.NodeID(ev.B))
		in.t.Emitf(in.k.Now(), obs.KindFault, "link", int(ev.A), int(ev.B), "heal")
	case OpGPUXid, OpGPUThrottle, OpGPUHeal, OpGPUReclaim, OpGPUReturn:
		in.applyGPU(ev)
	default:
		panic(fmt.Sprintf("fault: unknown op %v", ev.Op))
	}
}

func (in *Injector) applyGPU(ev Event) {
	m := in.c.Machine(ev.A)
	if m == nil {
		return
	}
	g := m.GPU(ev.Gpu)
	if g == nil {
		return
	}
	name := g.String()
	switch ev.Op {
	case OpGPUXid:
		if g.Failed() {
			return
		}
		in.GPUXids.Inc()
		g.Fail(ev.Xid)
		in.t.Emitf(in.k.Now(), obs.KindFault, name, int(ev.A), ev.Gpu,
			"gpu xid %d (fatal, device memory lost)", ev.Xid)
	case OpGPUThrottle:
		in.GPUThrottles.Inc()
		if ev.Factor > 1 {
			g.SetThrottle(ev.Factor)
		}
		if ev.StallEvery > 0 {
			g.SetStutter(ev.StallEvery, ev.Stall)
		}
		in.t.Emitf(in.k.Now(), obs.KindFault, name, int(ev.A), ev.Gpu,
			"gpu throttle x%.2f stall %v/%d", g.Throttle(), ev.Stall, ev.StallEvery)
	case OpGPUHeal:
		in.GPUHeals.Inc()
		g.Heal()
		in.t.Emitf(in.k.Now(), obs.KindRecover, name, int(ev.A), ev.Gpu, "gpu heal")
	case OpGPUReclaim:
		if !g.Available() {
			return
		}
		in.GPUReclaims.Inc()
		g.SetAvailable(false)
		in.t.Emitf(in.k.Now(), obs.KindFault, name, int(ev.A), ev.Gpu, "gpu spot reclaim")
	case OpGPUReturn:
		if g.Available() {
			return
		}
		in.GPUReturns.Inc()
		g.SetAvailable(true)
		in.t.Emitf(in.k.Now(), obs.KindRecover, name, int(ev.A), ev.Gpu, "gpu spot return")
	}
	if in.HookGPU != nil {
		in.HookGPU(ev.A, ev.Gpu)
	}
}

func (in *Injector) crash(mid cluster.MachineID) {
	m := in.c.Machine(mid)
	if m == nil || m.Down() {
		return
	}
	in.Crashes.Inc()
	// Network first (in-flight RPCs fail), then the machine (tasks
	// retired, memory wiped), then the control plane's orphaning pass.
	in.c.Node(mid).SetDown(true)
	m.Crash()
	in.t.Emitf(in.k.Now(), obs.KindCrash, m.Name, int(mid), -1, "machine fail-stop")
	if in.HookCrash != nil {
		in.HookCrash(mid)
	}
}

func (in *Injector) restart(mid cluster.MachineID) {
	m := in.c.Machine(mid)
	if m == nil || !m.Down() {
		return
	}
	in.Restarts.Inc()
	m.Restart()
	in.c.Node(mid).SetDown(false)
	in.t.Emitf(in.k.Now(), obs.KindRecover, m.Name, int(mid), -1, "machine restart (empty)")
}
