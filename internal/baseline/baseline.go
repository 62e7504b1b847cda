// Package baseline implements the non-fungible systems Quicksand is
// compared against in the experiments:
//
//   - StaticPipeline: the classic cloud deployment for the Figure 2
//     case study — each machine independently holds a partition of the
//     input in its own RAM and processes it with its own cores. No
//     resource can be used across machine boundaries, so imbalanced
//     machines either run out of memory or strand CPU.
//   - CoarseApp: a VM/container-grained application for Figure 1 — one
//     monolithic unit with gigabytes of state and a slow monitor, so
//     migration takes hundreds of milliseconds and reacts in seconds,
//     far too coarse to harvest 10 ms idle windows.
package baseline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// StaticResult reports one static-pipeline run.
type StaticResult struct {
	// Completion is the virtual time at which the last machine
	// finished, zero if the run failed.
	Completion sim.Time
	// OOM is non-nil when some partition did not fit its machine.
	OOM error
	// PerMachine is each machine's own finish time.
	PerMachine []sim.Time
}

// StaticPipeline runs the image-preprocessing stage as a non-fungible
// application: the corpus is split across machines in the given
// fractions (which must sum to ~1); machine i loads its partition into
// local RAM and processes it with local cores only. Returns the
// completion time, or an OOM error when a partition exceeds a
// machine's memory — the paper's "run out of memory or underutilize
// CPUs" dichotomy.
//
// The run owns the kernel: it spawns processes and runs the simulation
// to completion.
func StaticPipeline(k *sim.Kernel, machines []*cluster.Machine, imgs []workload.Image, frac []float64) StaticResult {
	if len(machines) != len(frac) {
		panic("baseline: fractions must match machines")
	}
	var sum float64
	for _, f := range frac {
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		panic(fmt.Sprintf("baseline: fractions sum to %v", sum))
	}

	res := StaticResult{PerMachine: make([]sim.Time, len(machines))}

	// Partition the corpus contiguously by fraction.
	bounds := make([]int, len(machines)+1)
	for i := range machines {
		bounds[i+1] = bounds[i] + int(float64(float64(len(imgs))*frac[i])+0.5)
	}
	bounds[len(machines)] = len(imgs)

	// Check and charge memory up front (the static app must hold its
	// partition resident, like the Quicksand pipeline holds the
	// sharded vector).
	charged := make([]int64, len(machines))
	for i, m := range machines {
		var bytes int64
		for _, im := range imgs[bounds[i]:bounds[i+1]] {
			bytes += im.Bytes
		}
		if err := m.AllocMem(bytes); err != nil {
			for j := 0; j < i; j++ {
				machines[j].FreeMem(charged[j])
			}
			res.OOM = fmt.Errorf("baseline: partition %d (%d bytes): %w", i, bytes, err)
			return res
		}
		charged[i] = bytes
	}

	var wg sim.WaitGroup
	for i, m := range machines {
		i, m := i, m
		part := imgs[bounds[i]:bounds[i+1]]
		workers := int(m.Cores())
		if workers < 1 {
			workers = 1
		}
		wg.Add(workers)
		next := 0
		for w := 0; w < workers; w++ {
			k.Spawn(fmt.Sprintf("static-m%d-w%d", m.ID, w), func(p *sim.Proc) {
				defer wg.Done()
				for next < len(part) {
					im := part[next]
					next++
					m.Exec(p, im.CPU)
				}
				if p.Now() > res.PerMachine[i] {
					res.PerMachine[i] = p.Now()
				}
			})
		}
	}
	k.Spawn("static-join", func(p *sim.Proc) {
		wg.Wait(p)
		res.Completion = p.Now()
		for i, m := range machines {
			m.FreeMem(charged[i])
		}
	})
	k.Run()
	return res
}

// CoarseApp is a monolithic, VM-grained application: all of its work
// and state live in one unit that can only move wholesale. Its monitor
// polls at a coarse period (seconds in real clouds); its state is
// large (a VM or container image plus heap), so each move costs
// hundreds of milliseconds of copying.
type CoarseApp struct {
	sys *core.System
	cp  *core.ComputeProclet

	// MonitorPeriod is how often the orchestrator checks placement.
	MonitorPeriod time.Duration
	// Moves counts completed migrations.
	Moves int64
}

// NewCoarseApp creates a coarse application with `workers` threads and
// stateBytes of monolithic state on machine m. It is pinned so
// Quicksand's reactors leave it alone; only its own slow monitor moves
// it.
func NewCoarseApp(sys *core.System, name string, m cluster.MachineID, workers int, stateBytes int64, monitorPeriod time.Duration) (*CoarseApp, error) {
	cp, err := core.NewComputeProcletOn(sys, name, m, workers)
	if err != nil {
		return nil, err
	}
	if err := cp.Proclet().GrowHeap(stateBytes - cp.Proclet().HeapBytes()); err != nil {
		return nil, err
	}
	sys.Sched.Pin(cp.ID())
	return &CoarseApp{sys: sys, cp: cp, MonitorPeriod: monitorPeriod}, nil
}

// Compute returns the underlying compute proclet (submit work with Run).
func (ca *CoarseApp) Compute() *core.ComputeProclet { return ca.cp }

// StartMonitor launches the slow reprovisioning loop: every
// MonitorPeriod, if the app's machine has no available cores and some
// other machine does, move there (paying the full state copy).
func (ca *CoarseApp) StartMonitor() {
	ca.sys.K.Spawn("coarse-monitor", func(p *sim.Proc) {
		for {
			p.Sleep(ca.MonitorPeriod)
			here := ca.sys.Cluster.Machine(ca.cp.Location())
			if here.AvailCores() > 0 {
				continue
			}
			var best *cluster.Machine
			for _, m := range ca.sys.Cluster.Machines() {
				if m.ID == here.ID || m.AvailCores() <= 0 {
					continue
				}
				if m.MemFree() < ca.cp.Proclet().HeapBytes() {
					continue
				}
				if best == nil || m.AvailCores() > best.AvailCores() {
					best = m
				}
			}
			if best == nil {
				continue
			}
			if err := ca.sys.Runtime.Migrate(p, ca.cp.ID(), best.ID); err == nil {
				ca.Moves++
			}
		}
	})
}
