// Package gpu implements GPU resource proclets — the proclet type the
// paper motivates but had "not yet implemented" (§4), answering §5's
// question of how to keep fine-grained resource units productive on
// unreliable, reclaimable accelerators.
//
// A GPU proclet owns a model replica resident in device memory and
// exposes a training-step method: upload a batch over the host link,
// execute a kernel, and — when checkpointing is on — ship the step's
// optimizer delta to a host-RAM mirror before acknowledging, so an
// acked step is never lost. Migration moves the device state to
// another GPU while new steps block and in-flight steps drain,
// mirroring the Nu migration protocol at the device level; restore
// rebuilds a proclet whose device died fatally (XID) from the mirror
// instead, losing at most the one unacked in-flight step.
//
// A Fleet watches the devices — spot reclaims, XID-style fatal errors,
// and gray degradation (thermal throttle, ECC stutter) — and reacts:
// evacuation for readable reclaimed devices, checkpoint re-placement
// for dead ones, and straggler mitigation driven by per-proclet
// step-latency EWMAs compared against the fleet median.
package gpu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Errors returned by GPU proclet operations.
var (
	ErrReclaimed    = errors.New("gpu: device reclaimed")
	ErrDeviceFailed = errors.New("gpu: fatal device error")
	ErrNoSpare      = errors.New("gpu: no available GPU with room")
)

// methodStep is the training-step method on the host-side proclet.
const methodStep = "gpu.step"

// controlHeap is the host-RAM footprint of a GPU proclet's control
// state (input pipeline buffers, launch queues).
const controlHeap = 1 << 20

// ewmaAlpha smooths the per-proclet step-latency and queue-delay
// averages the straggler detector consumes.
const ewmaAlpha = 0.25

// AutoHome asks the checkpoint plane to pick the mirror machine:
// the lowest-ID machine different from the device's (anti-affine),
// falling back to the device's own host RAM on one-machine clusters
// (which still survives a device XID, just not a machine crash).
const AutoHome cluster.MachineID = -1

// CheckpointConfig describes a proclet's training-state checkpoints.
// The protocol follows the replication plane's group-commit shipping
// discipline (core.ReplManager): state reaches the mirror before the
// step is acknowledged, so acknowledged work survives device loss.
type CheckpointConfig struct {
	// DeltaBytes is the optimizer delta shipped synchronously after
	// every step (device → host → mirror machine). 0 disables
	// checkpointing entirely.
	DeltaBytes int64
	// SnapshotEvery replaces every Nth delta with a full model
	// snapshot, bounding mirror divergence from accumulated deltas
	// (0 = deltas only).
	SnapshotEvery int
	// Home is the machine holding the host-RAM mirror; AutoHome picks
	// anti-affine to the initial device.
	Home cluster.MachineID
}

// Enabled reports whether checkpoints are on.
func (c CheckpointConfig) Enabled() bool { return c.DeltaBytes > 0 }

// Proclet is a GPU resource proclet: model state in device memory plus
// a host-side control proclet on the device's machine.
type Proclet struct {
	sys  *core.System
	pr   *proclet.Proclet
	gpu  *cluster.GPU
	name string

	modelBytes int64
	stepKernel time.Duration

	ckpt      CheckpointConfig
	ckptHome  cluster.MachineID
	acked     int64 // training steps acknowledged to the driver
	ckptStep  int64 // highest step covered by the mirror
	sinceSnap int

	migrating bool
	active    int
	drained   sim.Cond
	unblocked sim.Cond
	dead      bool

	// Straggler telemetry: smoothed per-step latency and device queue
	// delay, in milliseconds. Reset when the proclet changes device.
	stepMS   *metrics.EWMA
	qdelayMS *metrics.EWMA

	// Steps counts acknowledged training steps (cumulative, never
	// rolled back); Checkpoints counts mirror ships; LostSteps counts
	// acknowledged steps that had to be redone after a device loss —
	// always zero while checkpointing is enabled.
	Steps       metrics.Counter
	Checkpoints metrics.Counter
	LostSteps   metrics.Counter
}

// New creates a GPU proclet on device g with modelBytes of device
// state and no checkpointing; each training step costs stepKernel of
// device time plus the batch upload.
func New(sys *core.System, name string, g *cluster.GPU, modelBytes int64, stepKernel time.Duration) (*Proclet, error) {
	return NewCheckpointed(sys, name, g, modelBytes, stepKernel, CheckpointConfig{})
}

// NewCheckpointed creates a GPU proclet whose training state is
// mirrored per ck.
func NewCheckpointed(sys *core.System, name string, g *cluster.GPU, modelBytes int64, stepKernel time.Duration, ck CheckpointConfig) (*Proclet, error) {
	if !g.Healthy() {
		return nil, deviceErr(g)
	}
	if err := g.AllocMem(modelBytes); err != nil {
		return nil, err
	}
	pr, err := sys.Runtime.Spawn(name, g.Machine.ID, controlHeap)
	if err != nil {
		g.FreeMem(modelBytes)
		return nil, err
	}
	gp := &Proclet{
		sys:        sys,
		pr:         pr,
		gpu:        g,
		name:       name,
		modelBytes: modelBytes,
		stepKernel: stepKernel,
		ckpt:       ck,
		stepMS:     metrics.NewEWMA(ewmaAlpha),
		qdelayMS:   metrics.NewEWMA(ewmaAlpha),
	}
	if ck.Enabled() {
		gp.ckptHome = ck.Home
		if gp.ckptHome == AutoHome {
			gp.ckptHome = g.Machine.ID
			for _, m := range sys.Cluster.Machines() {
				if m.ID != g.Machine.ID {
					gp.ckptHome = m.ID
					break
				}
			}
		}
	}
	pr.Data = gp
	sys.Sched.RegisterProclet(pr, core.KindOther)
	sys.Sched.Pin(pr.ID()) // device affinity: only the Fleet moves it
	pr.Handle(methodStep, gp.step)
	return gp, nil
}

func deviceErr(g *cluster.GPU) error {
	if g.Failed() {
		return fmt.Errorf("%w: %s xid %d", ErrDeviceFailed, g, g.Xid())
	}
	return fmt.Errorf("%w: %s", ErrReclaimed, g)
}

// step is the gpu.step method body. It must not block on migration
// completion: the migration protocol drains the control proclet's
// invocations, so waiting here would deadlock. Instead a migrating
// proclet rejects the step with ErrMigrating and the public Step
// wrapper retries from outside the invocation.
func (gp *Proclet) step(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
	if gp.migrating {
		return proclet.Msg{}, proclet.ErrMigrating
	}
	if gp.dead {
		return proclet.Msg{}, proclet.ErrDead
	}
	g := gp.gpu
	if !g.Healthy() {
		return proclet.Msg{}, deviceErr(g)
	}
	gp.active++
	start := ctx.Proc.Now()
	batchBytes, _ := arg.Payload.(int64)
	qwait := g.Upload(ctx.Proc, batchBytes)
	qwait += g.ExecKernel(ctx.Proc, gp.stepKernel)
	// The device may have died or been reclaimed while the kernel ran:
	// the step is not acknowledged and not checkpointed — the driver
	// retries it after re-placement. This is the "at most one step"
	// loss window.
	if gp.dead || !g.Healthy() {
		gp.finish()
		return proclet.Msg{}, deviceErr(g)
	}
	if gp.ckpt.Enabled() {
		if err := gp.shipCheckpoint(ctx.Proc, g); err != nil {
			gp.finish()
			return proclet.Msg{}, err
		}
	}
	gp.acked++
	gp.Steps.Inc()
	gp.stepMS.Observe(float64(ctx.Proc.Now().Sub(start)) / float64(time.Millisecond))
	gp.qdelayMS.Observe(float64(qwait) / float64(time.Millisecond))
	gp.finish()
	return proclet.Msg{}, nil
}

// shipCheckpoint moves the step's state change to the mirror before
// the ack: the delta (or a periodic full snapshot) crosses the host
// link, then the network when the mirror is anti-affine.
func (gp *Proclet) shipCheckpoint(p *sim.Proc, g *cluster.GPU) error {
	ship := gp.ckpt.DeltaBytes
	gp.sinceSnap++
	if gp.ckpt.SnapshotEvery > 0 && gp.sinceSnap >= gp.ckpt.SnapshotEvery {
		ship = gp.modelBytes
		gp.sinceSnap = 0
	}
	g.Download(p, ship)
	if gp.ckptHome != g.Machine.ID {
		if err := gp.sys.Cluster.Fabric.Transfer(p,
			simnet.NodeID(g.Machine.ID), simnet.NodeID(gp.ckptHome), ship); err != nil {
			return err
		}
	}
	if gp.dead || !g.Healthy() {
		return deviceErr(g)
	}
	gp.ckptStep = gp.acked + 1
	gp.Checkpoints.Inc()
	return nil
}

func (gp *Proclet) finish() {
	gp.active--
	if gp.active == 0 {
		gp.drained.Broadcast()
	}
}

// Name returns the proclet's name.
func (gp *Proclet) Name() string { return gp.name }

// ProcletID returns the host-side proclet's ID.
func (gp *Proclet) ProcletID() proclet.ID { return gp.pr.ID() }

// Device returns the GPU currently hosting the model.
func (gp *Proclet) Device() *cluster.GPU { return gp.gpu }

// ModelBytes returns the device-resident state size.
func (gp *Proclet) ModelBytes() int64 { return gp.modelBytes }

// CompletedSteps returns the driver-visible training progress: acked
// steps, rolled back only when an unmirrored model is lost.
func (gp *Proclet) CompletedSteps() int64 { return gp.acked }

// CheckpointHome returns the mirror machine (meaningful only when
// checkpointing is enabled).
func (gp *Proclet) CheckpointHome() cluster.MachineID { return gp.ckptHome }

// StepLatencyMS returns the smoothed per-step latency in milliseconds.
func (gp *Proclet) StepLatencyMS() float64 { return gp.stepMS.Value() }

// QueueDelayMS returns the smoothed device queue delay in milliseconds.
func (gp *Proclet) QueueDelayMS() float64 { return gp.qdelayMS.Value() }

// StepSamples returns how many steps have fed the latency average
// since the proclet last changed device.
func (gp *Proclet) StepSamples() int64 { return gp.stepMS.Count() }

func (gp *Proclet) resetTelemetry() {
	gp.stepMS.Reset()
	gp.qdelayMS.Reset()
}

// Step performs one training step from the caller's machine: the batch
// travels to the proclet's machine (network), then to the device
// (host link), then the kernel runs. Steps that land mid-migration
// wait (outside the invocation) for the move to finish and retry;
// device failures surface to the caller (see AwaitPlaced).
func (gp *Proclet) Step(p *sim.Proc, from cluster.MachineID, batchBytes int64) error {
	for {
		if gp.migrating {
			// Wait for the in-progress device move, then re-route (the
			// control proclet may now live on another machine).
			gp.unblocked.Wait(p)
			continue
		}
		_, err := gp.sys.Runtime.Invoke(p, from, 0, gp.pr.ID(), methodStep,
			proclet.Msg{Payload: batchBytes, Bytes: batchBytes})
		if errors.Is(err, proclet.ErrMigrating) {
			continue
		}
		return err
	}
}

// AwaitPlaced blocks until the proclet sits on a healthy device with
// no migration in flight (or is destroyed). Drivers call this after a
// Step fails with a device error, then retry: the Fleet's re-placement
// broadcasts the wakeup.
func (gp *Proclet) AwaitPlaced(p *sim.Proc) error {
	for {
		if gp.dead {
			return proclet.ErrDead
		}
		if !gp.migrating && gp.gpu.Healthy() {
			return nil
		}
		gp.unblocked.Wait(p)
	}
}

// MigrateTo moves the model replica to another GPU by reading it back
// from the current device: block new steps, drain in-flight ones, copy
// device state (host link down, network if cross-machine, host link
// up), move the control proclet if the machine changed, and resume.
// The source must be readable — reclaimed is fine (providers keep the
// memory addressable for a grace window), fatally failed is not: a
// Failed source requires RestoreTo.
func (gp *Proclet) MigrateTo(p *sim.Proc, dst *cluster.GPU) error {
	if gp.dead {
		return proclet.ErrDead
	}
	if dst == gp.gpu {
		return nil
	}
	if !dst.Healthy() {
		return fmt.Errorf("gpu: destination: %w", deviceErr(dst))
	}
	if gp.gpu.Failed() {
		return fmt.Errorf("gpu: source unreadable: %w", deviceErr(gp.gpu))
	}
	if gp.migrating {
		return proclet.ErrMigrating
	}
	if err := dst.AllocMem(gp.modelBytes); err != nil {
		return err
	}
	src := gp.gpu
	gp.migrating = true
	for gp.active > 0 {
		gp.drained.Wait(p)
	}

	// Device -> host on the source machine; the device remains
	// readable after a spot reclaim, matching providers' grace
	// windows.
	src.Download(p, gp.modelBytes)
	if dst.Machine.ID != src.Machine.ID {
		if err := gp.sys.Cluster.Fabric.Transfer(p,
			simnet.NodeID(src.Machine.ID), simnet.NodeID(dst.Machine.ID), gp.modelBytes); err != nil {
			dst.FreeMem(gp.modelBytes)
			gp.migrating = false
			gp.unblocked.Broadcast()
			return err
		}
		if err := gp.sys.Runtime.Migrate(p, gp.pr.ID(), dst.Machine.ID); err != nil {
			dst.FreeMem(gp.modelBytes)
			gp.migrating = false
			gp.unblocked.Broadcast()
			return err
		}
	}
	dst.Upload(p, gp.modelBytes)

	src.FreeMem(gp.modelBytes)
	gp.gpu = dst
	gp.resetTelemetry()
	gp.migrating = false
	gp.unblocked.Broadcast()
	gp.sys.Trace.Emitf(gp.sys.K.Now(), obs.KindMigrate, gp.name,
		int(src.Machine.ID), int(dst.Machine.ID), "gpu %s -> %s (%d bytes)", src, dst, gp.modelBytes)
	return nil
}

// RestoreTo rebuilds the proclet on dst after its device died fatally:
// the model ships from the checkpoint mirror (network if the mirror is
// remote, then host link up). Without checkpointing the model is gone —
// training restarts from step zero and every acked step is counted
// lost. At most the one in-flight unacked step is lost when a mirror
// exists, because acks happen only after the delta reaches it.
func (gp *Proclet) RestoreTo(p *sim.Proc, dst *cluster.GPU) error {
	if gp.dead {
		return proclet.ErrDead
	}
	if !dst.Healthy() {
		return fmt.Errorf("gpu: destination: %w", deviceErr(dst))
	}
	if dst == gp.gpu {
		return fmt.Errorf("gpu: restore onto the failed device %s", dst)
	}
	if gp.migrating {
		return proclet.ErrMigrating
	}
	if err := dst.AllocMem(gp.modelBytes); err != nil {
		return err
	}
	src := gp.gpu
	gp.migrating = true
	// In-flight steps on the dead device wake from their kernel
	// sleeps, observe the failure, and abort unacked.
	for gp.active > 0 {
		gp.drained.Wait(p)
	}

	if gp.ckpt.Enabled() {
		if gp.ckptHome != dst.Machine.ID {
			if err := gp.sys.Cluster.Fabric.Transfer(p,
				simnet.NodeID(gp.ckptHome), simnet.NodeID(dst.Machine.ID), gp.modelBytes); err != nil {
				dst.FreeMem(gp.modelBytes)
				gp.migrating = false
				gp.unblocked.Broadcast()
				return err
			}
		}
		if lost := gp.acked - gp.ckptStep; lost > 0 {
			// Unreachable while ships are synchronous; kept as the
			// accounting truth if the protocol ever batches acks.
			gp.LostSteps.Addn(lost)
			gp.acked = gp.ckptStep
		}
	} else {
		gp.LostSteps.Addn(gp.acked)
		gp.acked = 0
		gp.ckptStep = 0
	}
	if dst.Machine.ID != src.Machine.ID {
		if err := gp.sys.Runtime.Migrate(p, gp.pr.ID(), dst.Machine.ID); err != nil {
			dst.FreeMem(gp.modelBytes)
			gp.migrating = false
			gp.unblocked.Broadcast()
			return err
		}
	}
	dst.Upload(p, gp.modelBytes)

	src.FreeMem(gp.modelBytes)
	gp.gpu = dst
	gp.resetTelemetry()
	gp.migrating = false
	gp.unblocked.Broadcast()
	gp.sys.Trace.Emitf(gp.sys.K.Now(), obs.KindRecover, gp.name,
		int(src.Machine.ID), int(dst.Machine.ID),
		"gpu restore %s -> %s from mirror m%d (step %d)", src, dst, gp.ckptHome, gp.ckptStep)
	return nil
}

// Destroy releases device memory and the control proclet.
func (gp *Proclet) Destroy() error {
	if gp.dead {
		return nil
	}
	gp.dead = true
	gp.gpu.FreeMem(gp.modelBytes)
	gp.unblocked.Broadcast()
	gp.sys.Sched.UnregisterProclet(gp.pr.ID())
	return gp.sys.Runtime.Destroy(gp.pr.ID())
}
