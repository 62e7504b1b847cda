package core

// Crash recovery policy. The fault injector breaks machines; this file
// decides what the control plane does about it: orphaned compute
// proclets are re-placed onto live machines and resume their (drained)
// work loops, orphaned memory proclets are re-placed empty and their
// contents reconstructed through an application-provided Rebuilder
// (replaying a durable source, re-deriving from peers), and when no
// live machine has capacity the scheduler sheds the proclet rather
// than wedging recovery. Restarted machines rejoin empty and are
// re-admitted implicitly: every placement loop skips Down machines, so
// a machine that comes back simply starts winning placements again.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// Rebuilder reconstructs a memory proclet's contents after it was
// re-placed empty by crash recovery (its heap was lost with the
// machine). The callback runs on the recovery process and may invoke
// any proclet operations; a non-nil error abandons the proclet.
type Rebuilder func(p *sim.Proc, mp *MemoryProclet) error

// SetRebuilder installs the recovery reconstruction hook for memory
// proclets. Without one, recovered memory proclets come back empty.
func (s *System) SetRebuilder(rb Rebuilder) { s.rebuild = rb }

// AttachInjector wires the system's recovery handlers into a fault
// injector: every machine crash triggers orphan re-placement. Restarts
// need no handler — the machine rejoins empty and placement loops pick
// it up automatically.
func (s *System) AttachInjector(in *fault.Injector) {
	in.HookCrash = s.handleCrash
}

// handleCrash runs at the instant a machine fail-stops. Orphaning is
// synchronous (routing must start failing fast immediately); the
// re-placement work runs on its own process so the injector never
// blocks the kernel. With the replication plane installed, the
// recovery *decision* is deferred to the failure detector: orphans are
// parked until heartbeats confirm the machine dead (or see it answer
// again) — the oracle knowledge that a crash happened is no longer
// consumed by the control plane.
func (s *System) handleCrash(mid cluster.MachineID) {
	orphans := s.Runtime.CrashMachine(mid)
	if s.repl != nil {
		s.repl.noteOrphans(mid, orphans)
		return
	}
	if len(orphans) == 0 {
		return
	}
	s.K.Spawn(fmt.Sprintf("sched/recover-m%d", mid), func(p *sim.Proc) {
		s.Sched.recoverOrphans(p, orphans)
	})
}

// recoverOrphans re-places each orphan in turn (deterministic order:
// CrashMachine returns them sorted by ID).
func (sc *Scheduler) recoverOrphans(p *sim.Proc, orphans []*proclet.Proclet) {
	for _, pr := range orphans {
		if pr.State() != proclet.StateOrphaned {
			continue // already handled (e.g. destroyed by the app)
		}
		sc.recoverOne(p, pr)
	}
}

// restoreAttempts bounds how many distinct placements recovery tries
// per orphan before shedding it (each attempt can fail only if the
// chosen machine dies during the restore).
const restoreAttempts = 3

func (sc *Scheduler) recoverOne(p *sim.Proc, pr *proclet.Proclet) {
	pi := sc.info[pr.ID()]
	kind := KindOther
	if pi != nil {
		kind = pi.kind
	}
	for attempt := 0; attempt < restoreAttempts; attempt++ {
		var target cluster.MachineID
		var err error
		if kind == KindCompute {
			target, err = sc.placeCompute()
		} else {
			// A memory orphan places by its pre-crash footprint; its heap
			// is reset below, so a later attempt places by 0 bytes.
			target, err = sc.PlaceMemory(pr.HeapBytes())
		}
		if err != nil {
			continue
		}
		// A memory orphan's heap died with the machine: restore it empty,
		// then rebuild.
		var mp *MemoryProclet
		if kind == KindMemory {
			if mp, _ = pr.Data.(*MemoryProclet); mp != nil {
				mp.objs = objTable{}
			}
			pr.ResetHeap()
		}
		if err := sc.sys.Runtime.Restore(p, pr, target); err != nil {
			continue
		}
		sc.Recoveries.Inc()
		if mp != nil && sc.sys.rebuild != nil {
			if rerr := sc.sys.rebuild(p, mp); rerr != nil {
				sc.sys.Trace.Emitf(sc.sys.K.Now(), obs.KindRecover, pr.Name(),
					-1, int(target), "rebuild failed: %v", rerr.Error())
			}
		}
		return
	}
	// No live machine could take it: shed the proclet so its callers see
	// ErrNotFound instead of retrying against a dead entry forever.
	sc.shed(pr)
}

// shed abandons an orphan the cluster cannot hold (graceful
// degradation under capacity loss).
func (sc *Scheduler) shed(pr *proclet.Proclet) {
	sc.unregister(pr.ID())
	sc.sys.Runtime.Abandon(pr)
	sc.Sheds.Inc()
}
