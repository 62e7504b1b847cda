package experiments

// ext-gpufleet: a heterogeneous GPU fleet rides out gray failures.
// ext-gpu showed device-state migration beating restart-based recovery
// for clean spot reclaims; this extension drives the full robustness
// plane: XID-style fatal device errors recovered from host-RAM
// checkpoint mirrors, thermal throttling and ECC stutter absorbed by
// EWMA straggler detection with speculative re-dispatch to faster
// spares, and a spot reclaim evacuated over the readable grace window —
// all against a fixed-work makespan target so the cost of robustness is
// a single ratio against an undisturbed oracle run.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/obs/slo"
	"repro/internal/proclet"
	"repro/internal/runpar"
	"repro/internal/sim"
)

// gpufleetCfg parameterizes the GPU-fleet robustness experiment.
type gpufleetCfg struct {
	machines    int
	trainers    int
	modelBytes  int64
	stepKernel  time.Duration
	batchBytes  int64
	deltaBytes  int64 // per-step checkpoint ship
	snapEvery   int   // every Nth delta is a full snapshot
	targetSteps int64 // fixed work per trainer (makespan denominator)
	guard       sim.Time
}

func gpufleetConfig(scale Scale) gpufleetCfg {
	cfg := gpufleetCfg{
		machines:    3,
		trainers:    6,
		modelBytes:  64 << 20,
		stepKernel:  time.Millisecond,
		batchBytes:  1 << 20,
		deltaBytes:  256 << 10,
		snapEvery:   50,
		targetSteps: 400,
		guard:       sim.Time(8 * time.Second),
	}
	if scale == TestScale {
		cfg.targetSteps = 150
		cfg.guard = sim.Time(4 * time.Second)
	}
	return cfg
}

// gpufleetSchedule scripts the gray failures against the deterministic
// initial placement (trainer i sits on machine i/3, device i%3): a
// spot reclaim/return cycle under trainer 5, a fatal XID under
// trainer 0, a thermal throttle under trainer 3 that never heals, and
// an ECC stutter under trainer 4 that heals late. Machine 2's devices
// start empty and serve as the spare pool; the reclaim comes first so
// its grace window is evacuated while the watcher is otherwise idle.
func gpufleetSchedule() fault.Schedule {
	at := func(ms float64) sim.Time { return sim.Time(ms * 1e6) }
	return fault.Schedule{
		{At: at(25), Op: fault.OpGPUReclaim, A: 1, Gpu: 2},
		{At: at(40), Op: fault.OpGPUXid, A: 0, Gpu: 0, Xid: 79},
		{At: at(60), Op: fault.OpGPUThrottle, A: 1, Gpu: 0, Factor: 3},
		{At: at(60), Op: fault.OpGPUThrottle, A: 1, Gpu: 1,
			StallEvery: 3, Stall: 4 * time.Millisecond},
		{At: at(95), Op: fault.OpGPUReturn, A: 1, Gpu: 2},
		{At: at(160), Op: fault.OpGPUHeal, A: 1, Gpu: 1},
	}
}

// gpufleetOut is one variant's outcome.
type gpufleetOut struct {
	makespan    sim.Time // all trainers reached targetSteps
	steps       int64    // acked steps summed over trainers (>= target sum)
	lostSteps   int64    // acked steps redone after device loss
	restores    int64
	evacs       int64
	mitigations int64
	stranded    int64
	xids        int64
	sloWindows  int // step-latency SLO windows closed
	opened      int // incidents opened by the step-latency SLO
	resolved    int
	events      uint64
	trace       []string
}

// gpufleetSLO watches the fleet's per-step latency: 20ms windows, a
// ring of 2, paging when the windowed p999 blows past 6x the clean
// kernel time. The throttle phase trips it; the heal (or a straggler
// re-dispatch) resolves it — so the incident stream is the operator's
// view of the gray failure the detector never confirms.
func gpufleetSLO(cfg gpufleetCfg) *slo.Monitor {
	return slo.New(slo.Config{
		Window:  sim.Time(20 * time.Millisecond),
		Windows: 2,
		Rules: []slo.Rule{
			{Kind: slo.P999Above, BoundMS: 6 * float64(cfg.stepKernel) / float64(time.Millisecond),
				For: 1, Severity: "page"},
		},
		Subject: "gpufleet",
		Machine: -1,
	})
}

// runGPUFleetOnce drives cfg.trainers checkpointed trainers to the
// fixed step target. inject installs the gray-failure schedule; ckpt
// enables the per-step mirror; mitigate enables straggler re-dispatch.
func runGPUFleetOnce(cfg gpufleetCfg, inject, ckpt, mitigate bool) (gpufleetOut, error) {
	var out gpufleetOut
	machines := make([]cluster.MachineConfig, cfg.machines)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 8, MemBytes: 16 << 30}
	}
	sysCfg := core.DefaultConfig()
	sysCfg.Seed = seeded(17)
	sys := core.NewSystem(sysCfg, machines)
	defer sys.Close()
	sys.Start()

	// Heterogeneous devices: machines 0 and 1 carry two a100-class and
	// one h100-class (2x kernel speed) device each, and trainers fill
	// them in placement order. Machine 2 is the spare pool — one a100
	// and two h100s, so restores land somewhere and stragglers have
	// strictly faster hardware to escape to.
	for i, m := range sys.Cluster.Machines() {
		a100s, h100s := 2, 1
		if i == cfg.machines-1 {
			a100s, h100s = 1, 2
		}
		m.AddGPUs(
			cluster.GPUConfig{Count: a100s, MemBytes: 2 << 30, LinkBandwidth: 16_000_000_000,
				Class: "a100", Speed: 1},
			cluster.GPUConfig{Count: h100s, MemBytes: 2 << 30, LinkBandwidth: 16_000_000_000,
				Class: "h100", Speed: 2},
		)
	}

	fcfg := gpu.Config{Period: time.Millisecond}
	if ckpt {
		fcfg.Checkpoint = gpu.CheckpointConfig{
			DeltaBytes:    cfg.deltaBytes,
			SnapshotEvery: cfg.snapEvery,
			Home:          gpu.AutoHome,
		}
	}
	if !mitigate {
		// Effectively disable the straggler detector: no EWMA will ever
		// exceed 1e6 x the fleet median.
		fcfg.StragglerFactor = 1e6
	}
	fleet := gpu.NewFleetConfig(sys, "gpufleet", fcfg)
	trainers := make([]*gpu.Proclet, cfg.trainers)
	for i := range trainers {
		gp, err := fleet.Add(fmt.Sprintf("trainer-%d", i), cfg.modelBytes, cfg.stepKernel)
		if err != nil {
			return out, err
		}
		trainers[i] = gp
	}
	fleet.Start()

	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	in.HookGPU = func(cluster.MachineID, int) { fleet.Kick() }
	if inject {
		in.Install(gpufleetSchedule())
	}

	// The step-latency SLO monitor: host-side arithmetic over the same
	// step completions the drivers already see, fed in kernel schedule
	// order, so it is deterministic and costs no kernel events.
	mon := gpufleetSLO(cfg)
	mon.Log = sys.Trace

	var wg sim.WaitGroup
	for i, gp := range trainers {
		i, gp := i, gp
		wg.Add(1)
		sys.K.Spawn(fmt.Sprintf("driver-%d", i), func(p *sim.Proc) {
			defer wg.Done()
			// CompletedSteps can roll back on an uncheckpointed restore,
			// so the loop is over remaining work, not an iteration count.
			for gp.CompletedSteps() < cfg.targetSteps {
				before := p.Now()
				err := gp.Step(p, gp.Device().Machine.ID, cfg.batchBytes)
				mon.Observe(p.Now(), int64(p.Now()-before), err != nil)
				if err == nil {
					continue
				}
				if errors.Is(err, proclet.ErrDead) {
					return
				}
				if gp.AwaitPlaced(p) != nil {
					return
				}
			}
		})
	}

	completed := false
	sys.K.Spawn("gpufleet-driver", func(p *sim.Proc) {
		wg.Wait(p)
		out.makespan = p.Now()
		completed = true
		sys.K.Stop()
	})
	sys.K.RunUntil(cfg.guard)
	if !completed {
		return out, fmt.Errorf("ext-gpufleet: trainers did not finish %d steps by %v (fleet wedged)",
			cfg.targetSteps, cfg.guard)
	}
	fleet.Stop()

	for _, gp := range trainers {
		out.steps += gp.CompletedSteps()
	}
	mon.Finish(out.makespan)
	out.sloWindows = mon.WindowsClosed()
	out.opened = mon.Opened()
	out.resolved = mon.Resolved()
	out.lostSteps = fleet.LostSteps()
	out.restores = fleet.Restores.Value()
	out.evacs = fleet.Evacuations.Value()
	out.mitigations = fleet.Mitigations.Value()
	out.stranded = fleet.Stranded.Value()
	out.xids = in.GPUXids.Value()
	out.events = sys.K.EventsProcessed()
	out.trace = sys.Trace.Lines()
	return out, nil
}

func runExtGPUFleet(scale Scale) (*Result, error) {
	cfg := gpufleetConfig(scale)
	res := newResult("ext-gpufleet",
		"extension: heterogeneous GPU fleet under gray failures — checkpoints, stragglers, makespan")
	res.addf("setup: %d machines of mixed a100/h100 devices, %d trainers (model %d MiB, %v kernel), %d steps each",
		cfg.machines, cfg.trainers, cfg.modelBytes>>20, cfg.stepKernel, cfg.targetSteps)
	res.addf("checkpoints: %d KiB delta per step to an anti-affine host-RAM mirror, full snapshot every %d",
		cfg.deltaBytes>>10, cfg.snapEvery)
	res.addf("faults: spot reclaim m1/gpu2 @25ms (returns @95ms), XID m0/gpu0 @40ms, throttle x3")
	res.addf("m1/gpu0 @60ms (never heals), ECC stutter m1/gpu1 @60ms (heals @160ms); m2 is the spare pool")

	// Four variants fanned across host cores: the full robustness plane,
	// mitigation off (stragglers crawl), checkpoints off (XID loses all
	// acked work), and the undisturbed oracle the makespans are measured
	// against.
	type variant struct {
		name                   string
		inject, ckpt, mitigate bool
	}
	variants := []variant{
		{"robust", true, true, true},
		{"no-mitigation", true, true, false},
		{"no-checkpoint", true, false, true},
		{"oracle", false, false, false},
	}
	outs, err := runpar.MapErr(len(variants), parallelism, func(i int) (gpufleetOut, error) {
		v := variants[i]
		return runGPUFleetOnce(cfg, v.inject, v.ckpt, v.mitigate)
	})
	if err != nil {
		return nil, err
	}
	robust, nomit, nockpt, oracle := outs[0], outs[1], outs[2], outs[3]
	res.EventsProcessed = robust.events + nomit.events + nockpt.events + oracle.events
	res.Trace = robust.trace

	ms := func(t sim.Time) float64 { return float64(t) / 1e6 }
	res.addf("%-15s %13s %9s %10s %9s %6s %11s %10s", "variant",
		"makespan[ms]", "steps", "lost-steps", "restores", "evacs", "mitigations", "stranded")
	for i, o := range outs {
		res.addf("%-15s %13.1f %9d %10d %9d %6d %11d %10d",
			variants[i].name, ms(o.makespan), o.steps, o.lostSteps,
			o.restores, o.evacs, o.mitigations, o.stranded)
	}
	ratio := ms(robust.makespan) / ms(oracle.makespan)
	res.addf("makespan ratio robust/oracle: %.3f — the full robustness tax (checkpoint shipping +", ratio)
	res.addf("fault disruption) on top of an undisturbed heterogeneous run; no acked step is lost.")
	res.addf("no-mitigation pays %.1f%% over robust (stragglers crawl at the throttled rate);",
		100*(ms(nomit.makespan)/ms(robust.makespan)-1))
	res.addf("no-checkpoint redoes %d acked steps after the XID.", nockpt.lostSteps)
	res.addf("step-latency slo (robust): %d windows, %d incidents opened, %d resolved; no-mitigation: %d opened, %d resolved",
		robust.sloWindows, robust.opened, robust.resolved, nomit.opened, nomit.resolved)

	res.set("makespan_ms_robust", ms(robust.makespan))
	res.set("makespan_ms_nomit", ms(nomit.makespan))
	res.set("makespan_ms_nockpt", ms(nockpt.makespan))
	res.set("makespan_ms_oracle", ms(oracle.makespan))
	res.set("makespan_ratio", ratio)
	res.set("steps", float64(robust.steps))
	// Durability gate: with checkpoints on, an acked step is never lost.
	res.set("lost_steps", float64(robust.lostSteps))
	// Contrast value, intentionally nonzero — named outside the gated
	// "lost" prefix so benchdiff does not bind it.
	res.set("nockpt_lost_steps", float64(nockpt.lostSteps))
	res.set("restores", float64(robust.restores))
	res.set("evacuations", float64(robust.evacs))
	res.set("mitigations", float64(robust.mitigations))
	res.set("stranded", float64(robust.stranded))
	res.set("xids", float64(robust.xids))
	res.set("slo_windows", float64(robust.sloWindows))
	res.set("incidents_opened", float64(robust.opened))
	res.set("incidents_resolved", float64(robust.resolved))
	res.set("nomit_incidents_opened", float64(nomit.opened))
	return res, nil
}
