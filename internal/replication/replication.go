// Package replication provides the failure-detection half of
// Quicksand's durability plane: a heartbeat-based failure detector with
// a suspect→confirm state machine, and machine-granular leases that
// make failover safe under partitions.
//
// The detector replaces the oracle crash knowledge used by the early
// recovery path (core.AttachInjector used to re-place orphans at the
// instant of the injected crash). Here a monitor machine pings every
// machine over the simulated fabric; consecutive missed heartbeats move
// a machine Alive→Suspect→Dead, and only a Dead confirmation triggers
// recovery. Degraded or partitioned links can produce false suspicion —
// the lease protocol renders that harmless: a machine's lease is
// renewed by the same heartbeats, so by the time the detector confirms
// a machine dead, any still-alive-but-partitioned primary on it has
// already stopped serving (its lease lapsed strictly before the
// confirmation, provided LeaseDuration < ConfirmMisses*HeartbeatPeriod).
//
// All timing randomness (heartbeat jitter) is drawn from the kernel
// RNG, so runs are deterministic per seed.
package replication

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// methodPing is the heartbeat RPC served by every machine's node.
const methodPing = "repl.ping"

// pingBytes is the on-wire size of a heartbeat request and reply.
const pingBytes = 16

// Config tunes the failure detector and the lease protocol.
type Config struct {
	// HeartbeatPeriod is the monitor's per-machine ping interval.
	HeartbeatPeriod time.Duration
	// HeartbeatJitter is the fraction of each period randomized (0..1),
	// drawn from the kernel RNG: a period d becomes uniform in
	// [d*(1-j/2), d*(1+j/2)]. Jitter de-synchronizes the per-machine
	// ping loops. Unlike the other fields, zero is not defaulted: a
	// zero Config — what every caller in the tree passes — pings in
	// lockstep, with no jitter (ROADMAP item 1, defect iv).
	HeartbeatJitter float64
	// PingTimeout bounds each heartbeat RPC. Zero defaults to
	// HeartbeatPeriod.
	PingTimeout time.Duration
	// SuspectMisses is the number of consecutive missed heartbeats
	// after which a machine becomes Suspect.
	SuspectMisses int
	// ConfirmMisses is the number of consecutive missed heartbeats
	// after which a Suspect machine is confirmed Dead and recovery
	// begins. Must exceed SuspectMisses.
	ConfirmMisses int
	// LeaseDuration is how long a machine's serving lease lasts past
	// its most recent heartbeat arrival. Safety requires
	// LeaseDuration < ConfirmMisses*HeartbeatPeriod so a partitioned
	// primary's lease lapses strictly before the detector confirms it
	// dead and promotes a backup — never two serving primaries.
	LeaseDuration time.Duration
}

// DefaultConfig returns detector parameters tuned for the simulated
// fabric's microsecond RPCs: confirmation in ~3ms of a fail-stop,
// leases lapsing ~1ms before that. A zero Config gets every value here
// except HeartbeatJitter, which withDefaults clamps to [0, 1] but
// leaves at 0.
func DefaultConfig() Config {
	return Config{
		HeartbeatPeriod: 500 * time.Microsecond,
		HeartbeatJitter: 0.2,
		SuspectMisses:   2,
		ConfirmMisses:   6,
		LeaseDuration:   2 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = d.HeartbeatPeriod
	}
	if c.HeartbeatJitter < 0 {
		c.HeartbeatJitter = 0
	} else if c.HeartbeatJitter > 1 {
		c.HeartbeatJitter = 1
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.HeartbeatPeriod
	}
	if c.SuspectMisses <= 0 {
		c.SuspectMisses = d.SuspectMisses
	}
	if c.ConfirmMisses <= c.SuspectMisses {
		c.ConfirmMisses = c.SuspectMisses + d.ConfirmMisses - d.SuspectMisses
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = d.LeaseDuration
	}
	if c.LeaseDuration >= time.Duration(c.ConfirmMisses)*c.HeartbeatPeriod {
		panic(fmt.Sprintf(
			"replication: LeaseDuration %v must be below ConfirmMisses*HeartbeatPeriod %v (split-brain window)",
			c.LeaseDuration, time.Duration(c.ConfirmMisses)*c.HeartbeatPeriod))
	}
	return c
}

// MachineState is the detector's view of one machine.
type MachineState int

// Detector states for a machine.
const (
	StateAlive MachineState = iota
	StateSuspect
	StateDead
)

func (s MachineState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// machineHealth is the detector's per-machine record.
type machineHealth struct {
	state    MachineState
	misses   int
	lastBeat sim.Time // arrival time of the most recent successful ping reply
}

// Detector is the heartbeat failure detector. One monitor machine pings
// every machine in the cluster; per-machine miss counts drive the
// Alive→Suspect→Dead state machine, and successful ping *arrivals* at
// the target renew that machine's serving lease.
type Detector struct {
	k       *sim.Kernel
	c       *cluster.Cluster
	tl      *obs.Log
	cfg     Config
	monitor cluster.MachineID

	// Both indexed by MachineID (the cluster assigns ids densely from 0)
	// and sized to the machines present at NewDetector; a machine added
	// later is unmonitored: Alive, and without a lease.
	health []machineHealth
	leases []sim.Time // serving-lease expiry per machine

	// OnSuspect fires when a machine transitions Alive→Suspect;
	// OnConfirm when Suspect→Dead (recovery should begin); OnAlive on
	// every successful heartbeat round trip — not just transitions —
	// because a machine can crash and restart so fast it never leaves
	// Alive, yet its orphaned proclets still need recovery. Hooks run on
	// the detector's per-machine ping process and should spawn if they
	// need to block for long.
	OnSuspect func(cluster.MachineID)
	OnConfirm func(cluster.MachineID)
	OnAlive   func(cluster.MachineID)

	// Counters and distributions for experiments and tools.
	HeartbeatsSent   metrics.Counter
	HeartbeatsMissed metrics.Counter
	Suspects         metrics.Counter
	Confirms         metrics.Counter
	FalseSuspects    metrics.Counter // Suspect machines that answered again
	// DetectLatency records, at each confirmation, seconds since the
	// machine's last successful heartbeat — the blind window.
	DetectLatency *metrics.Histogram

	started bool
	stopped bool
}

// NewDetector creates a detector monitoring every machine currently in
// the cluster from the given monitor machine. It registers the
// heartbeat handler on every node and grants every machine an initial
// lease; Start launches the ping loops. tl may be nil.
func NewDetector(k *sim.Kernel, c *cluster.Cluster, tl *obs.Log, cfg Config, monitor cluster.MachineID) *Detector {
	d := &Detector{
		k:             k,
		c:             c,
		tl:            tl,
		cfg:           cfg.withDefaults(),
		monitor:       monitor,
		health:        make([]machineHealth, len(c.Machines())),
		leases:        make([]sim.Time, len(c.Machines())),
		DetectLatency: metrics.NewHistogram("replication.detect_latency"),
	}
	now := k.Now()
	for _, m := range c.Machines() {
		mid := m.ID
		d.health[mid] = machineHealth{state: StateAlive, lastBeat: now}
		d.leases[mid] = now + sim.Time(d.cfg.LeaseDuration)
		// The handler runs in kernel context at request delivery on the
		// target machine: the lease renewal models local knowledge — a
		// partitioned machine stops receiving pings and its lease lapses
		// without any cross-machine coordination.
		d.c.Node(mid).HandleFast(methodPing, func(req simnet.Message) (simnet.Message, error) {
			d.leases[mid] = d.k.Now() + sim.Time(d.cfg.LeaseDuration)
			return simnet.Message{Bytes: pingBytes}, nil
		})
	}
	return d
}

// Config returns the detector's (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Monitor returns the machine the ping loops run on.
func (d *Detector) Monitor() cluster.MachineID { return d.monitor }

// Start launches one heartbeat process per monitored machine. Call
// once, after the cluster is fully populated.
func (d *Detector) Start() {
	if d.started {
		panic("replication: detector started twice")
	}
	d.started = true
	now := d.k.Now()
	for _, m := range d.c.Machines() {
		mid := m.ID
		d.health[mid].lastBeat = now
		d.leases[mid] = now + sim.Time(d.cfg.LeaseDuration)
		name := func() string { return fmt.Sprintf("repl/fd-m%d", mid) }
		d.k.SpawnLazy(name, func(p *sim.Proc) { d.pingLoop(p, mid) })
	}
}

// Stop halts the ping loops at their next iteration.
func (d *Detector) Stop() { d.stopped = true }

// pingLoop is the monitor's heartbeat process for one machine.
func (d *Detector) pingLoop(p *sim.Proc, mid cluster.MachineID) {
	for !d.stopped {
		d.sleepPeriod(p)
		if d.stopped {
			return
		}
		d.HeartbeatsSent.Inc()
		_, err := d.c.Fabric.CallWithTimeout(p,
			simnet.NodeID(d.monitor), simnet.NodeID(mid),
			methodPing, simnet.Message{Bytes: pingBytes}, d.cfg.PingTimeout)
		if err == nil {
			d.noteAlive(mid, p.Now())
		} else {
			d.HeartbeatsMissed.Inc()
			d.noteMiss(mid)
		}
	}
}

// sleepPeriod sleeps one jittered heartbeat period.
func (d *Detector) sleepPeriod(p *sim.Proc) {
	period := d.cfg.HeartbeatPeriod
	if j := d.cfg.HeartbeatJitter; j > 0 {
		period = time.Duration(float64(period) * (1 - j/2 + j*d.k.Rand().Float64()))
	}
	p.Sleep(period)
}

// noteAlive records a successful heartbeat round trip.
func (d *Detector) noteAlive(mid cluster.MachineID, at sim.Time) {
	h := &d.health[mid]
	prev := h.state
	h.misses = 0
	h.lastBeat = at
	h.state = StateAlive
	switch prev {
	case StateSuspect:
		d.FalseSuspects.Inc()
		d.tl.Emitf(at, obs.KindSuspect, fmt.Sprintf("m%d", mid), int(d.monitor), int(mid),
			"cleared: heartbeat answered")
	case StateDead:
		d.tl.Emitf(at, obs.KindSuspect, fmt.Sprintf("m%d", mid), int(d.monitor), int(mid),
			"rejoined after confirm")
	}
	if d.OnAlive != nil {
		d.OnAlive(mid)
	}
}

// noteMiss records a missed heartbeat and advances the state machine.
func (d *Detector) noteMiss(mid cluster.MachineID) {
	h := &d.health[mid]
	h.misses++
	switch {
	case h.state == StateAlive && h.misses >= d.cfg.SuspectMisses:
		h.state = StateSuspect
		d.Suspects.Inc()
		d.tl.Emitf(d.k.Now(), obs.KindSuspect, fmt.Sprintf("m%d", mid), int(d.monitor), int(mid),
			"suspected after %d misses", h.misses)
		if d.OnSuspect != nil {
			d.OnSuspect(mid)
		}
	case h.state == StateSuspect && h.misses >= d.cfg.ConfirmMisses:
		h.state = StateDead
		d.Confirms.Inc()
		d.DetectLatency.ObserveDuration(time.Duration(d.k.Now() - h.lastBeat))
		d.tl.Emitf(d.k.Now(), obs.KindSuspect, fmt.Sprintf("m%d", mid), int(d.monitor), int(mid),
			"confirmed dead after %d misses", h.misses)
		if d.OnConfirm != nil {
			d.OnConfirm(mid)
		}
	}
}

// State returns the detector's view of machine mid.
func (d *Detector) State(mid cluster.MachineID) MachineState {
	if uint(mid) < uint(len(d.health)) {
		return d.health[mid].state
	}
	return StateAlive
}

// LeaseValid reports whether machine mid currently holds a serving
// lease: its most recent heartbeat arrived within LeaseDuration. A
// primary on a machine without a valid lease must not serve.
func (d *Detector) LeaseValid(mid cluster.MachineID) bool {
	return d.k.Now() < d.LeaseExpiry(mid)
}

// LeaseExpiry returns machine mid's current lease expiry instant, zero
// for a machine the detector does not monitor.
func (d *Detector) LeaseExpiry(mid cluster.MachineID) sim.Time {
	if uint(mid) < uint(len(d.leases)) {
		return d.leases[mid]
	}
	return 0
}
