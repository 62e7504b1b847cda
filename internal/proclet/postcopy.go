package proclet

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Post-copy ("lazy") migration — the paper's §5 CXL direction: with
// coherent remote memory, a proclet can *move* before its heap does.
// MigrateLazy commits the location switch after only the drain and
// pinning pause (a blackout independent of state size); the heap then
// streams over in the background while invocations at the new home pay
// a remote-access penalty for not-yet-resident state.
//
// Compared to Migrate (pre-copy):
//
//	            blackout              post-move invocation cost
//	pre-copy    O(state/bandwidth)    none
//	post-copy   O(1)                  LazyRemotePenalty until resident
//
// The heap stays charged to the source machine until the background
// copy lands (the bytes physically live there), with the destination's
// share reserved up front so the copy cannot strand the proclet.

// MigrateLazy post-copy-migrates the proclet: the location flips after
// draining in-flight invocations and paying only the fixed pinning
// overhead; the heap streams over in the background. Further
// migrations are rejected with ErrMigrating until the proclet is
// resident.
func (rt *Runtime) MigrateLazy(p *sim.Proc, id ID, to cluster.MachineID) error {
	pr := rt.Lookup(id)
	if pr == nil {
		return ErrNotFound
	}
	if pr.state == StateMigrating || pr.lazyWindow {
		return ErrMigrating
	}
	from := pr.machine
	if from == to {
		return nil
	}
	dst := rt.Cluster.Machine(to)
	if dst == nil {
		return ErrNotFound
	}
	// Reserve the destination's share up front; the source keeps its
	// charge until the copy completes (the bytes live there).
	if err := dst.AllocMem(pr.heapBytes); err != nil {
		return err
	}
	dstEpoch := dst.Epoch()

	var sp, frz obs.SpanID
	if rt.obs != nil {
		sp = rt.obs.Start(obs.KindMigrate, pr.name, int(from), 0)
		rt.obs.SetRoute(sp, int(from), int(to))
		rt.obs.SetBytes(sp, pr.heapBytes)
		rt.obs.Str(sp, "mode", "postcopy")
		frz = rt.obs.Start(obs.KindPhase, "freeze", int(from), sp)
	}

	start := rt.k.Now()
	pr.state = StateMigrating
	pr.cancelTasks()
	for pr.active > 0 {
		pr.drained.Wait(p)
	}

	// Only the fixed control-plane pause — no per-byte pinning, the
	// pages are not copied during the blackout.
	p.Sleep(rt.cfg.MigrationFixedOverhead)

	// Commit the move.
	rt.cache(from, id, to)
	rt.cache(to, id, to)
	pr.machine = to
	pr.allocEpoch = dstEpoch
	pr.state = StateRunning
	pr.lazyWindow = true
	pr.unblocked.Broadcast()

	blackout := rt.k.Now().Sub(start)
	rt.MigrationLatency.ObserveDuration(blackout)
	rt.Migrations.Inc()
	rt.Trace.Emitf(rt.k.Now(), obs.KindMigrate, pr.name, int(from), int(to),
		"post-copy blackout=%v bytes=%d", blackout, pr.heapBytes)

	// The migrate span covers only the blackout; the postcopy phase
	// span runs until residence (clamped open if the run ends first).
	var pcp obs.SpanID
	if rt.obs != nil {
		rt.obs.End(frz)
		rt.obs.End(sp)
		pcp = rt.obs.Start(obs.KindPhase, "postcopy", int(to), sp)
		rt.obs.SetRoute(pcp, int(from), int(to))
		rt.obs.SetBytes(pcp, pr.heapBytes)
	}

	// Background copy: stream the heap, then settle the accounting.
	heap := pr.heapBytes
	srcEpoch := rt.Cluster.Machine(from).Epoch()
	rt.k.Spawn("postcopy/"+pr.name, func(bp *sim.Proc) {
		err := rt.Cluster.Fabric.Transfer(bp, simnet.NodeID(from), simnet.NodeID(to), heap)
		// Transient failures (partition, timeout): the proclet stays
		// remote-dependent; retry until the fabric heals. Stop for good
		// if the proclet itself is gone — a crash on either end orphaned
		// or killed it, and recovery owns the accounting from there.
		for err != nil {
			if pr.state == StateDead || pr.state == StateOrphaned || !pr.lazyWindow {
				rt.obs.SetErr(pcp, err)
				rt.obs.End(pcp)
				return
			}
			bp.Sleep(time.Millisecond)
			err = rt.Cluster.Fabric.Transfer(bp, simnet.NodeID(from), simnet.NodeID(to), heap)
		}
		if src := rt.Cluster.Machine(from); src.Epoch() == srcEpoch {
			src.FreeMem(heap)
		}
		if !pr.lazyWindow {
			rt.obs.End(pcp)
			return // crashed mid-copy; nothing left to settle
		}
		pr.lazyWindow = false
		pr.residentAt = rt.k.Now()
		rt.LazyResidence.ObserveDuration(rt.k.Now().Sub(start))
		rt.Trace.Emitf(rt.k.Now(), obs.KindMigrate, pr.name, int(from), int(to),
			"post-copy resident after %v", rt.k.Now().Sub(start))
		rt.obs.End(pcp)
	})
	return nil
}

// lazyPenalty charges the remote-access cost of an invocation that
// runs during a post-copy window.
func (rt *Runtime) lazyPenalty(p *sim.Proc, pr *Proclet) {
	if pr.lazyWindow && rt.cfg.LazyRemotePenalty > 0 {
		rt.LazyPenalties.Inc()
		p.Sleep(rt.cfg.LazyRemotePenalty)
	}
}
