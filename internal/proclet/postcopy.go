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
//	post-copy   O(1)                  lazyRemotePenalty until resident
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
	mv, err := rt.freeze(p, id, to, 0, "postcopy")
	if mv.pr == nil {
		return err
	}
	pr, from := mv.pr, mv.from

	// Post-copy blackout: only the fixed control-plane pause — no
	// per-byte pinning, the pages are not copied during the blackout.
	p.Sleep(migrationFixedOverhead)
	if err := rt.landed(&mv, nil); err != nil {
		return err
	}

	// The source keeps its charge, made under srcEpoch, until the
	// background copy lands.
	start, heap, srcEpoch := mv.start, pr.heapBytes, pr.allocEpoch
	blackout := rt.commit(&mv, true)
	rt.Trace.Emitf(rt.k.Now(), obs.KindMigrate, pr.name, int(from), int(to),
		"post-copy blackout=%v bytes=%d", blackout, pr.heapBytes)

	// The migrate span covers only the blackout; the postcopy phase
	// span runs until residence (clamped open if the run ends first).
	var pcp obs.SpanID
	if rt.obs != nil {
		rt.obs.End(mv.frz)
		rt.obs.End(mv.sp)
		pcp = rt.obs.Start(obs.KindPhase, "postcopy", int(to), mv.sp)
		rt.obs.SetRoute(pcp, int(from), int(to))
		rt.obs.SetBytes(pcp, pr.heapBytes)
	}

	// Background copy: stream the heap, then settle the accounting.
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
		rt.LazyResidence.ObserveDuration(rt.k.Now().Sub(start))
		rt.Trace.Emitf(rt.k.Now(), obs.KindMigrate, pr.name, int(from), int(to),
			"post-copy resident after %v", rt.k.Now().Sub(start))
		rt.obs.End(pcp)
	})
	return nil
}

// lazyPenalty counts the remote-access penalty of an invocation that
// runs during a post-copy window and returns its cost, 0 outside one.
func (rt *Runtime) lazyPenalty(pr *Proclet) time.Duration {
	if pr.lazyWindow {
		rt.LazyPenalties.Inc()
		return lazyRemotePenalty
	}
	return 0
}
