package proclet

// Crash recovery: when a machine fail-stops (cluster.Machine.Crash),
// every proclet resident there is orphaned — detached from the machine,
// its heap contents gone, serving nothing. A recovery controller (the
// core scheduler) then either Restores each orphan onto a live machine
// (re-placing compute, reconstructing memory contents via a rebuild
// hook) or Abandons it when the cluster has no capacity left.
//
// Routing during the outage: the directory keeps mapping an orphan to
// its dead machine, so invocations fail fast with simnet.ErrNodeDown
// and retry with backoff until Restore updates the directory (or
// Abandon removes the entry, surfacing ErrNotFound).

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// freeHeap releases pr's heap charge against its hosting machine — but
// only if that allocation still exists (the machine has not crashed
// since it was made; a crash wipes all allocations and bumps the epoch).
func (rt *Runtime) freeHeap(pr *Proclet) {
	m := rt.Cluster.Machine(pr.machine)
	if m != nil && m.Epoch() == pr.allocEpoch {
		m.FreeMem(pr.heapBytes)
	}
}

// ResetHeap zeroes the proclet's accounted state size without touching
// machine accounting. Legal only while orphaned: the crashed machine's
// copy is already gone, and recovery re-grows the heap as contents are
// rebuilt (replication, replay).
func (pr *Proclet) ResetHeap() {
	if pr.state != StateOrphaned {
		panic(fmt.Sprintf("proclet: ResetHeap on %s in state %v", pr.name, pr.state))
	}
	pr.heapBytes = 0
}

// CrashMachine detaches every proclet resident on mid after the machine
// fail-stopped: each becomes StateOrphaned, its outstanding thread
// compute is canceled (Machine.Crash usually already retired it), and
// waiters are woken so they re-check state. Returns the orphans in
// ascending ID order so recovery is deterministic.
func (rt *Runtime) CrashMachine(mid cluster.MachineID) []*Proclet {
	var orphans []*Proclet
	for _, pr := range rt.procs {
		if pr == nil || !pr.resident || pr.machine != mid {
			continue
		}
		pr.resident = false
		pr.state = StateOrphaned
		pr.lazyWindow = false // a post-copy window dies with the machine
		pr.cancelTasks()
		// Wake suspended threads and migration waiters: they observe
		// StateOrphaned and park for recovery (or abort, for a migration
		// whose source just died).
		pr.unblocked.Broadcast()
		pr.drained.Broadcast()
		rt.Trace.Emitf(rt.k.Now(), obs.KindCrash, pr.name, int(mid), -1,
			"orphaned id=%d heap=%d", int64(pr.id), pr.heapBytes)
		orphans = append(orphans, pr)
	}
	return orphans
}

// Depose detaches a proclet from a machine that is still alive — the
// false-confirmation case: the failure detector confirmed the machine
// dead (it is partitioned from the monitor) but it never crashed. The
// proclet's heap charge is released and it becomes StateOrphaned so a
// failover can Restore it elsewhere; invocations arriving at the old
// machine find no local entry and chase ErrMoved to the new location.
// Safe only because the lease protocol already stopped the old primary
// from serving: its lease lapsed strictly before the confirmation.
func (rt *Runtime) Depose(pr *Proclet) error {
	if pr.state != StateRunning {
		return fmt.Errorf("proclet: Depose on %s in state %v", pr.name, pr.state)
	}
	mid := pr.machine
	rt.freeHeap(pr)
	pr.heapBytes = 0
	pr.resident = false
	pr.state = StateOrphaned
	pr.lazyWindow = false
	pr.cancelTasks()
	pr.unblocked.Broadcast()
	pr.drained.Broadcast()
	rt.Trace.Emitf(rt.k.Now(), obs.KindRepl, pr.name, int(mid), -1,
		"deposed id=%d (false confirmation)", int64(pr.id))
	return nil
}

// Restore places an orphaned proclet onto live machine `to`, charging
// its accounted heap size there and resuming its threads. Memory
// contents are NOT restored — the proclet's state is whatever its Data
// holds; callers needing reconstruction (memory proclets) reset the
// heap and rebuild after Restore returns. On failure the proclet stays
// orphaned and the caller may try another machine.
func (rt *Runtime) Restore(p *sim.Proc, pr *Proclet, to cluster.MachineID) error {
	if pr.state != StateOrphaned {
		return fmt.Errorf("proclet: Restore on %s in state %v", pr.name, pr.state)
	}
	dst, epoch, err := rt.reserve(to, pr.heapBytes, "restore")
	if err != nil {
		return err
	}
	from := pr.machine

	// Control-plane cost of the re-placement: directory update and page
	// table setup, same fixed overhead as a migration (no copy).
	p.Sleep(migrationFixedOverhead)
	if dst.Down() || dst.Epoch() != epoch {
		// The chosen machine died during the re-placement; its memory —
		// including our reservation — is gone. Still orphaned.
		return fmt.Errorf("%w: restore destination %d", simnet.ErrNodeDown, to)
	}

	pr.machine = to
	pr.resident = true
	pr.allocEpoch = epoch
	rt.cache(to, pr.id, to)
	pr.state = StateRunning
	pr.unblocked.Broadcast()
	rt.Trace.Emitf(rt.k.Now(), obs.KindRecover, pr.name, int(from), int(to),
		"restored id=%d heap=%d", int64(pr.id), pr.heapBytes)
	return nil
}

// Abandon gives up on an orphaned proclet (load shedding: no live
// machine can hold it). It becomes dead; pending and future invocations
// resolve with ErrNotFound once the directory entry is removed.
func (rt *Runtime) Abandon(pr *Proclet) {
	if pr.state != StateOrphaned {
		return
	}
	pr.state = StateDead
	pr.heapBytes = 0
	rt.procs[pr.id] = nil
	pr.unblocked.Broadcast()
	rt.Trace.Emitf(rt.k.Now(), obs.KindDestroy, pr.name, int(pr.machine), -1,
		"shed after crash id=%d", int64(pr.id))
}
