// Gputrain: GPU resource proclets riding out spot reclamations and
// gray failures — the proclet type the paper defers to future work
// (§4), implemented in internal/gpu.
//
// Four trainers hold 512 MiB model replicas in device memory across
// two machines, each shipping a small per-step checkpoint delta to an
// anti-affine host-RAM mirror. A "provider" reclaims one of their GPUs
// every 100 ms; the fleet watcher migrates the device state to a spare
// within tens of milliseconds and training continues. Mid-run one
// device dies outright with an XID — the fleet re-places the trainer
// from its mirror with zero acknowledged steps lost — and another
// thermally throttles until the straggler detector re-dispatches its
// trainer to a faster spare.
//
//	go run ./examples/gputrain
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func run(w io.Writer) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 16, MemBytes: 32 << 30},
		{Cores: 16, MemBytes: 32 << 30},
	})
	for _, m := range sys.Cluster.Machines() {
		m.AddGPUs(
			cluster.GPUConfig{Count: 2, MemBytes: 16 << 30, LinkBandwidth: 16_000_000_000,
				Class: "a100", Speed: 1},
			cluster.GPUConfig{Count: 1, MemBytes: 16 << 30, LinkBandwidth: 16_000_000_000,
				Class: "h100", Speed: 2},
		)
	}

	fleet := gpu.NewFleet(sys, "trainers", gpu.Config{
		Checkpoint: gpu.CheckpointConfig{
			DeltaBytes:    1 << 20,
			SnapshotEvery: 100,
		},
	})
	var trainers []*gpu.Proclet
	for i := 0; i < 4; i++ {
		gp, err := fleet.Add(fmt.Sprintf("trainer-%d", i), 512<<20, 5*time.Millisecond)
		if err != nil {
			log.Fatal(err)
		}
		trainers = append(trainers, gp)
		fmt.Fprintf(w, "%s starts on %v (%s)\n", gp.Name(), gp.Device(), gp.Device().Class())
	}
	fleet.Start()

	horizon := sim.Time(time.Second)
	for _, gp := range trainers {
		sys.K.Spawn("driver", func(p *sim.Proc) {
			gp.Train(p, 8<<20, func() bool { return p.Now() < horizon }, nil)
		})
	}

	// Gray failures land via the seeded fault plane: trainer-0's device
	// dies with an XID at 300 ms, trainer-1's throttles 4x at 500 ms and
	// heals at 800 ms. The hook bounds reaction latency to the event,
	// not the watcher period.
	in := fault.New(sys.K, sys.Cluster, sys.Trace)
	in.HookGPU = func(cluster.MachineID, int) { fleet.Kick() }
	d0, d1 := trainers[0].Device(), trainers[1].Device()
	in.Install(fault.Schedule{
		{At: sim.Time(300 * time.Millisecond), Op: fault.OpGPUXid,
			A: d0.Machine.ID, Gpu: d0.Index, Xid: 79},
		{At: sim.Time(500 * time.Millisecond), Op: fault.OpGPUThrottle,
			A: d1.Machine.ID, Gpu: d1.Index, Factor: 4},
		{At: sim.Time(800 * time.Millisecond), Op: fault.OpGPUHeal,
			A: d1.Machine.ID, Gpu: d1.Index},
	})

	// The provider also reclaims a trainer's GPU every 100 ms for 50 ms.
	victim := 0
	sys.K.Every(sim.Time(100*time.Millisecond), 100*time.Millisecond, func() bool {
		g := trainers[victim%len(trainers)].Device()
		victim++
		if !g.Healthy() {
			return sys.K.Now() < horizon // already failed or reclaimed
		}
		g.SetAvailable(false)
		fleet.Kick()
		sys.K.After(50*time.Millisecond, func() { g.SetAvailable(true) })
		return sys.K.Now() < horizon
	})

	sys.K.RunUntil(horizon)
	fleet.Stop()

	fmt.Fprintln(w)
	var total int64
	for _, gp := range trainers {
		fmt.Fprintf(w, "%s: %4d steps (%d checkpointed), ends on %v (%s)\n",
			gp.Name(), gp.CompletedSteps(), gp.Checkpoints.Value(), gp.Device(), gp.Device().Class())
		total += gp.CompletedSteps()
	}
	ideal := float64(len(trainers)) * horizon.Seconds() / (5.5e-3)
	fmt.Fprintf(w, "\ntotal %d steps = %.1f%% of fault-free ideal, %d acked steps lost\n",
		total, 100*float64(total)/ideal, fleet.LostSteps())
	fmt.Fprintf(w, "fleet: %d evacuations, %d restores, %d mitigations (mean %.1f ms) across %d reclamations + 1 xid\n",
		fleet.Evacuations.Value(), fleet.Restores.Value(), fleet.Mitigations.Value(),
		fleet.MigrationLatency.Mean()/1e6, victim)
}

func main() { run(os.Stdout) }
