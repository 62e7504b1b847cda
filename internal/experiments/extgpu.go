package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/proclet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// extGPUCfg parameterizes the GPU-proclet extension experiment: spot
// GPUs are reclaimed on a rotating schedule; GPU proclets migrate
// their device state to spares, while the baseline restarts training
// workers from a checkpoint.
type extGPUCfg struct {
	machines    int
	gpusPer     int
	trainers    int
	modelBytes  int64
	stepKernel  time.Duration
	batchBytes  int64
	reclaimGap  time.Duration // time between reclaim events
	reclaimHold time.Duration // how long a reclaimed GPU stays gone
	coldStart   time.Duration // framework restart cost (baseline)
	horizon     sim.Time
}

func extGPUConfig(scale Scale) extGPUCfg {
	cfg := extGPUCfg{
		machines:    2,
		gpusPer:     4,
		trainers:    6,
		modelBytes:  512 << 20,
		stepKernel:  5 * time.Millisecond,
		batchBytes:  8 << 20,
		reclaimGap:  400 * time.Millisecond,
		reclaimHold: 200 * time.Millisecond,
		coldStart:   time.Second,
		horizon:     sim.Time(4 * time.Second),
	}
	if scale == TestScale {
		cfg.horizon = sim.Time(1600 * time.Millisecond)
	}
	return cfg
}

// extGPUOut is one mode's outcome.
type extGPUOut struct {
	steps      int64
	idealSteps float64
	evacs      int64
	evacMeanMs float64
	restarts   int64
}

// extGPUSpec is one ext-gpu mode: GPU proclets the fleet migrates off
// a reclaimed device when fungible, restart from a checkpoint when not.
type extGPUSpec struct {
	cfg      extGPUCfg
	fungible bool
}

func (s extGPUSpec) run() (any, uint64, error) {
	cfg, fungible := s.cfg, s.fungible
	var out extGPUOut
	machines := make([]cluster.MachineConfig, cfg.machines)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 16, MemBytes: 32 << 30}
	}
	sys := core.NewSystem(core.DefaultConfig(), machines)
	defer sys.Close()
	for _, m := range sys.Cluster.Machines() {
		m.AddGPUs(cluster.GPUConfig{Count: cfg.gpusPer, MemBytes: 16 << 30, LinkBandwidth: 16_000_000_000})
	}

	fleet := gpu.NewFleet(sys, "trainers", gpu.Config{})
	trainers := make([]*gpu.Proclet, cfg.trainers)
	for i := range trainers {
		gp, err := fleet.Add(fmt.Sprintf("trainer-%d", i), cfg.modelBytes, cfg.stepKernel)
		if err != nil {
			return out, 0, err
		}
		trainers[i] = gp
	}
	if fungible {
		fleet.Start()
	}

	// Rotating spot reclamations: every reclaimGap, the device hosting
	// the next trainer is reclaimed for reclaimHold.
	victim := 0
	var reclaim func()
	reclaim = func() {
		if sys.K.Now() >= cfg.horizon {
			return
		}
		g := trainers[victim%len(trainers)].Device()
		victim++
		g.SetAvailable(false)
		sys.K.After(cfg.reclaimHold, func() { g.SetAvailable(true) })
		sys.K.After(cfg.reclaimGap, reclaim)
	}
	sys.K.After(cfg.reclaimGap, reclaim)

	// Training drivers.
	for i, gp := range trainers {
		i, gp := i, gp
		sys.K.Spawn(fmt.Sprintf("driver-%d", i), func(p *sim.Proc) {
			cur := gp
			for p.Now() < cfg.horizon {
				from := cur.Device().Machine.ID
				err := cur.Step(p, from, cfg.batchBytes)
				if err == nil {
					out.steps++
					continue
				}
				if !errors.Is(err, gpu.ErrReclaimed) &&
					!errors.Is(err, proclet.ErrDead) && !errors.Is(err, proclet.ErrNotFound) {
					return
				}
				if fungible {
					// The fleet is already migrating the proclet; back
					// off one watcher period and retry.
					p.Sleep(time.Millisecond)
					continue
				}
				// Restart-based baseline: tear down, cold-start a new
				// worker on an available GPU, reload the checkpoint
				// over the network.
				out.restarts++
				cur.Destroy()
				p.Sleep(cfg.coldStart)
				for {
					g, err := fleet.PickGPU(cfg.modelBytes, nil)
					if err != nil {
						p.Sleep(10 * time.Millisecond)
						continue
					}
					if terr := sys.Cluster.Fabric.Transfer(p,
						simnet.NodeID(0), simnet.NodeID(g.Machine.ID), cfg.modelBytes); terr != nil {
						p.Sleep(10 * time.Millisecond)
						continue
					}
					ngp, nerr := gpu.New(sys, fmt.Sprintf("trainer-%d", i), g, cfg.modelBytes, cfg.stepKernel)
					if nerr != nil {
						p.Sleep(10 * time.Millisecond)
						continue
					}
					cur = ngp
					break
				}
			}
		})
	}

	sys.K.RunUntil(cfg.horizon)
	fleet.Stop()

	stepTime := cfg.stepKernel +
		time.Duration(float64(cfg.batchBytes)/16e9*1e9) // kernel + upload
	out.idealSteps = float64(cfg.trainers) * float64(cfg.horizon) / float64(stepTime)
	out.evacs = fleet.Evacuations.Value()
	out.evacMeanMs = fleet.MigrationLatency.Mean() / 1e6
	return out, sys.K.EventsProcessed(), nil
}

func runExtGPU(scale Scale) (*Result, error) {
	cfg := extGPUConfig(scale)
	res := newResult("ext-gpu", "extension: GPU proclets ride out spot reclamations")
	res.addf("setup: %d machines x %d GPUs, %d trainers (model %d MiB, %v kernel); one hosting GPU",
		cfg.machines, cfg.gpusPer, cfg.trainers, cfg.modelBytes>>20, cfg.stepKernel)
	res.addf("reclaimed every %v for %v; baseline restart costs %v + checkpoint reload",
		cfg.reclaimGap, cfg.reclaimHold, cfg.coldStart)
	res.addf("%-14s %12s %12s %10s %14s %10s", "mode", "steps", "ideal%", "evacs", "evac mean[ms]", "restarts")
	outs, err := simulate[extGPUOut](res, []extGPUSpec{{cfg, true}, {cfg, false}})
	if err != nil {
		return nil, err
	}
	for i, name := range []string{"gpu-proclets", "restart"} {
		out := outs[i]
		pct := 100 * float64(out.steps) / out.idealSteps
		res.addf("%-14s %12d %11.1f%% %10d %14.1f %10d",
			name, out.steps, pct, out.evacs, out.evacMeanMs, out.restarts)
		res.set(name+".steps", float64(out.steps))
		res.set(name+".ideal_pct", pct)
		res.set(name+".evacs", float64(out.evacs))
		res.set(name+".restarts", float64(out.restarts))
	}
	res.set("evac_mean_ms", outs[0].evacMeanMs)
	res.addf("shape: device-state migration (~tens of ms for the model over host links + network) keeps")
	res.addf("training near the ideal across reclamations; restart-based recovery pays a second per event.")
	return res, nil
}
