package core

// Primary/backup replication for memory proclets. Enabling replication
// on a memory proclet (the primary) creates RF-1 backup proclets on
// distinct machines; every mutating operation ships a logical log
// record to each backup over the RPC fabric before acking, so a
// confirmed machine failure promotes the freshest backup instead of
// losing the heap. Ownership is lease-based: the primary serves only
// while its machine's lease (renewed by the failure detector's
// heartbeats) is valid, which makes failover safe even when the
// detector confirms a machine that is merely partitioned — by
// construction the lease lapses strictly before the confirmation, so
// there is never an instant with two serving primaries.
//
// Log shipping is group-committed: a writer appends its records to the
// set's pending pipe and, if another writer is already shipping, waits
// until the pipe has drained past its record — concurrent writes to
// one primary batch into single RPCs per backup instead of one RPC per
// write. The pipe owns every buffer a write passes through and reuses
// it (see commit for who may touch which, and until when), so a
// steady-state replicated write allocates nothing of its own. A write is
// a staged method (replWrite) and its wait for the pipe an Await stage
// (commit), so neither side of it switches a process in. Failed
// ships drop the backup from the set (the write still
// acks: the primary holds the data and re-replication restores RF);
// RF is repaired in the background by a resync that streams a
// point-in-time snapshot through the same pipe, keeping snapshot and
// live records totally ordered.

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/sim"
)

// methodMemReplApply is the backup-side RPC applying a record batch.
const methodMemReplApply = "mem.replapply"

// shipAttempts bounds invocation attempts per backup per batch: a dead
// backup is dropped after a short probe instead of stalling writers for
// the full retry budget (re-replication repairs the set).
const shipAttempts = 3

// repRecord is one logical log entry: the effect of a mutating
// operation (not the operation itself — update closures are applied at
// the primary and their result is shipped, so backups never re-run
// application code). gen 0 targets every backup; a nonzero gen targets
// only the backup created with that generation (resync snapshots).
type repRecord struct {
	id    uint64
	val   Value
	bytes int64
	del   bool
	gen   uint64
}

// replApplyReq is the wire argument of mem.replapply.
type replApplyReq struct {
	recs []repRecord
}

// payloadBytes sums the wire size of the batch's records.
func payloadBytes(recs []repRecord) int64 {
	var sum int64
	for _, r := range recs {
		if r.del {
			sum += 8
		} else {
			sum += r.bytes + 8
		}
	}
	return sum
}

// errReplEpoch aborts pipe waiters when their replica set failed over
// mid-flight: the write may or may not have reached the promoted
// replica, so the caller must retry against it (applies are idempotent
// absolute effects, so a duplicate is harmless).
var errReplEpoch = fmt.Errorf("%w: replica set failed over", proclet.ErrUnavailable)

// backupRef is the manager's handle on one backup replica.
type backupRef struct {
	mp      *MemoryProclet
	gen     uint64
	applied uint64 // pipe records processed for this backup
}

// replicaSet is the replication state of one primary.
type replicaSet struct {
	rm      *ReplManager
	primary *MemoryProclet
	rf      int
	backups []*backupRef

	// epoch is bumped by every promotion or depose; in-flight writers
	// and shippers from an older epoch abort with errReplEpoch.
	epoch uint64

	nextSeq    uint64 // records ever enqueued
	shippedSeq uint64 // records shipped (or abandoned at an epoch bump)
	pending    []repRecord
	spare      []repRecord  // emptied storage of the last shipped batch
	req        replApplyReq // the one request a shipper sends, backup after backup
	inflight   bool
	shipped    sim.Cond
	nextGen    uint64
	resyncing  bool
}

// ReplManager owns every replica set in a system and reacts to the
// failure detector's confirmations with failover and re-replication.
type ReplManager struct {
	sys  *System
	det  *replication.Detector
	sets map[proclet.ID]*replicaSet // keyed by primary proclet ID

	// pendingOrphans holds proclets orphaned by a crash until the
	// detector confirms the machine dead (or sees it answer again):
	// physical orphaning happens at the crash instant, but the recovery
	// decision belongs to the detector.
	pendingOrphans map[cluster.MachineID][]*proclet.Proclet

	Promotions  metrics.Counter
	Deposes     metrics.Counter
	Resyncs     metrics.Counter
	BackupDrops metrics.Counter
	ReplBatches metrics.Counter
	ReplRecords metrics.Counter
	// PromoteLatency records confirmation-to-promotion durations (the
	// control-plane half of failover; detection latency is the
	// detector's DetectLatency).
	PromoteLatency metrics.Summary
}

// EnableReplicationPlane installs the durability plane: a heartbeat
// failure detector monitoring every machine from `monitor`, leases
// renewed by those heartbeats, and a replication manager wired to the
// detector's confirmations. With the plane installed, crash recovery is
// driven by detector confirmations instead of injector oracle
// knowledge. Call once, before the workload starts; rcfg zero-values
// take the replication package's defaults, except HeartbeatJitter (stays 0).
func (s *System) EnableReplicationPlane(rcfg replication.Config, monitor cluster.MachineID) *ReplManager {
	if s.repl != nil {
		panic("core: replication plane enabled twice")
	}
	rm := &ReplManager{
		sys:            s,
		sets:           make(map[proclet.ID]*replicaSet),
		pendingOrphans: make(map[cluster.MachineID][]*proclet.Proclet),
	}
	det := replication.NewDetector(s.K, s.Cluster, s.Trace, rcfg, monitor)
	det.OnConfirm = rm.onConfirm
	det.OnAlive = rm.onAlive
	rm.det = det
	s.repl = rm
	det.Start()
	return rm
}

// Replication returns the replication manager, or nil when no plane is
// installed.
func (s *System) Replication() *ReplManager { return s.repl }

// Detector returns the plane's failure detector.
func (rm *ReplManager) Detector() *replication.Detector { return rm.det }

// leaseValid reports whether a primary on machine mid may serve.
func (rm *ReplManager) leaseValid(mid cluster.MachineID) bool {
	return rm.det.LeaseValid(mid)
}

// Replicate enables primary/backup replication on mp with the given
// replication factor: rf-1 backup proclets are created on machines
// hosting no other replica of this set, the primary's current contents
// are snapshotted to them, and every subsequent mutating op ships log
// records before acking. rf < 2 is a no-op. The primary and its
// backups are pinned: replicated sets trade harvest mobility for
// durability (anti-affine placement must survive the rebalancer).
func (rm *ReplManager) Replicate(mp *MemoryProclet, rf int) error {
	if rf < 2 {
		return nil
	}
	if mp.rs != nil {
		return fmt.Errorf("core: %s already replicated", mp.pr.Name())
	}
	if mp.isBackup {
		return fmt.Errorf("core: %s is a backup replica", mp.pr.Name())
	}
	rs := &replicaSet{rm: rm, primary: mp, rf: rf}
	mp.rs = rs
	rm.sets[mp.ID()] = rs
	rm.sys.Sched.Pin(mp.ID())
	for i := 0; i < rf-1; i++ {
		if err := rs.addBackup(); err != nil {
			return fmt.Errorf("core: replicate %s: %w", mp.pr.Name(), err)
		}
	}
	if len(rs.pending) > 0 {
		rm.spawnFlusher(rs)
	}
	return nil
}

// replicaMachines returns the machines currently hosting any replica of
// the set (primary included).
func (rs *replicaSet) replicaMachines() map[cluster.MachineID]bool {
	used := map[cluster.MachineID]bool{rs.primary.pr.Location(): true}
	for _, b := range rs.backups {
		used[b.mp.pr.Location()] = true
	}
	return used
}

// addBackup creates one backup shell on an anti-affine machine and
// enqueues a snapshot of the primary's current contents targeted at it.
// Host-side and atomic (no yields): the backup joins the pipe and the
// snapshot is fully enqueued before any later write, so snapshot and
// live records stay totally ordered.
func (rs *replicaSet) addBackup() error {
	sys := rs.rm.sys
	target, err := sys.Sched.placeMemoryExcluding(rs.primary.pr.HeapBytes(), rs.replicaMachines())
	if err != nil {
		return err
	}
	rs.nextGen++
	gen := rs.nextGen
	name := fmt.Sprintf("%s.rep%d", rs.primary.pr.Name(), gen)
	bmp, err := NewMemoryProcletOn(sys, name, target)
	if err != nil {
		return err
	}
	bmp.isBackup = true
	sys.Sched.Pin(bmp.ID())
	rs.backups = append(rs.backups, &backupRef{mp: bmp, gen: gen})
	sys.Trace.Emitf(sys.K.Now(), obs.KindRepl, rs.primary.pr.Name(),
		int(rs.primary.pr.Location()), int(target), "backup %s gen=%d", name, gen)

	// Snapshot the primary's live objects into the pipe, targeted at
	// this backup only. Ascending for determinism. The shell is sized for
	// them here, so applying the snapshot chunk by chunk never regrows it.
	objs := &rs.primary.objs
	sys.ids = objs.ids(sys.ids[:0], 0, topID)
	bmp.objs.reserve(len(sys.ids))
	for _, id := range sys.ids {
		e, _ := objs.get(id)
		rs.enqueue(repRecord{id: id, val: e.val, bytes: e.bytes, gen: gen})
	}
	return nil
}

// enqueue copies records onto the end of the pipe and returns the
// sequence number of the last one. The caller keeps recs.
func (rs *replicaSet) enqueue(recs ...repRecord) uint64 {
	rs.nextSeq += uint64(len(recs))
	rs.pending = append(rs.pending, recs...)
	rs.rm.ReplRecords.Addn(int64(len(recs)))
	return rs.nextSeq
}

// replWrite is a replicated primary's mutator, run as a staged method:
// check the lease, apply locally, commit the records to the backups, then
// ack. A failed ship does not fail the write (the backup is dropped and
// resync repairs the set); a failover does, and the caller retries
// against the promoted replica. Pooled on the System.
type replWrite struct {
	mp    *MemoryProclet
	apply applyFn
	arg   proclet.Msg
	res   proclet.Msg
	err   error
	c     commit
}

func (s *System) getWrite(mp *MemoryProclet, apply applyFn, arg proclet.Msg) *replWrite {
	var w *replWrite
	if n := len(s.writes); n > 0 {
		w, s.writes = s.writes[n-1], s.writes[:n-1]
	} else {
		w = &replWrite{}
	}
	w.mp, w.apply, w.arg = mp, apply, arg
	return w
}

func (w *replWrite) Step() sim.Wait {
	if w.c.rs == nil { // the first step: everything up to the commit
		rs, recs := w.mp.rs, []repRecord(nil)
		if rs == nil {
			// Replication was released between the fast decline and this
			// dispatch; serve plainly.
			w.res, _, w.err = w.apply(w.mp, w.arg)
		} else if w.err = w.mp.gate(); w.err == nil {
			w.res, recs, w.err = w.apply(w.mp, w.arg)
		}
		if w.err != nil || len(recs) == 0 {
			return sim.Resume
		}
		// recs is the primary's scratch (MemoryProclet.recs): it is copied
		// into the pipe and emptied before the first wait.
		epoch := rs.epoch
		w.c.start(rs, rs.enqueue(recs...), epoch)
		clear(recs)
	}
	if wt := w.c.step(); wt != sim.Resume {
		return wt
	}
	if w.c.err != nil {
		w.res, w.err = proclet.Msg{}, w.c.err
	}
	return sim.Resume
}

func (w *replWrite) End() (proclet.Msg, error) {
	res, err, sys := w.res, w.err, w.mp.sys
	*w = replWrite{c: commit{targets: w.c.targets}}
	sys.writes = append(sys.writes, w)
	return res, err
}

// commit is a wait, as an Await stage, for the pipe to ship past seq: a
// write's, or a resync's. Group commit: whoever finds the pipe idle holds
// it (inflight) and ships for everyone queued behind, batch after batch,
// while the others wait on shipped and never take over.
//
// The pipe has two buffers. Writers append to pending; the shipper takes
// pending as its batch, leaves the spare in its place for the writers
// that arrive meanwhile, and once the batch has gone to every backup
// empties it and keeps it as the next spare. A batch is the shipper's
// alone from the swap until then, and nobody else reads it while the
// shipper waits: inflight is not released by an epoch bump (a failover
// drops pending, never a batch, and a writer of the new epoch waits for
// the old shipper to leave); the backups' mem.replapply is fast-only, so
// it reads its records at the instant the request lands and keeps none;
// and simnet drops the delivery of a call that has already resolved, so a
// request that lands after its deadline is never read at all.
type commit struct {
	rs         *replicaSet
	seq, epoch uint64
	shipping   bool // this commit holds the pipe
	done       bool
	err        error // errReplEpoch if the set failed over
	// The shipper's batch in flight, a snapshot of the backups it goes to
	// (dropBackup edits rs.backups meanwhile), the one it is at and the
	// apply to that one.
	batch   []repRecord
	targets []*backupRef
	next    int
	inv     *proclet.Invocation
	sp      obs.SpanID
}

func (c *commit) start(rs *replicaSet, seq, epoch uint64) {
	c.rs, c.seq, c.epoch, c.done, c.err = rs, seq, epoch, false, nil
	c.shipping = !rs.inflight
	rs.inflight = true
}

// step moves the commit as far as it goes without waiting and returns the
// next wait, or Resume once it is done.
func (c *commit) step() sim.Wait {
	rs := c.rs
	for !c.done {
		switch {
		case !c.shipping:
			if rs.epoch == c.epoch && rs.shippedSeq < c.seq {
				return sim.On(&rs.shipped)
			}
			c.finish()
		case c.inv != nil:
			if w := c.inv.Step(); w != sim.Resume {
				return w
			}
			c.applied()
		case len(rs.pending) == 0 || rs.epoch != c.epoch:
			rs.inflight = false
			c.finish()
		default:
			c.startBatch()
		}
	}
	return sim.Resume
}

func (c *commit) finish() {
	if c.rs.epoch != c.epoch {
		c.err = errReplEpoch
	}
	c.done = true
}

// startBatch takes pending as the batch and ships it to every live backup,
// filtered per backup by record generation. A backup that cannot be
// reached within shipAttempts, or fails to apply (out of memory), is
// dropped.
func (c *commit) startBatch() {
	rs := c.rs
	c.batch = rs.pending
	rs.pending, rs.spare = rs.spare, nil
	rs.rm.ReplBatches.Inc()
	if tr := rs.rm.sys.Obs; tr != nil {
		c.sp = tr.Start(obs.KindRepl, "ship", int(rs.primary.pr.Location()), 0)
		tr.Num(c.sp, "records", float64(len(c.batch)))
	}
	c.targets, c.next = append(c.targets[:0], rs.backups...), 0
	c.nextBackup()
}

// nextBackup starts the apply to the next backup from c.next that takes
// records, or ends the batch.
func (c *commit) nextBackup() {
	rs := c.rs
	for ; c.next < len(c.targets) && rs.epoch == c.epoch; c.next++ {
		b := c.targets[c.next]
		if !rs.hasBackup(b) {
			continue // dropped while we shipped to an earlier backup
		}
		recs := c.batch
		if hasTargeted(recs) {
			recs = filterForGen(recs, b.gen)
		}
		if len(recs) == 0 {
			b.applied += uint64(len(c.batch))
			continue
		}
		if tr := rs.rm.sys.Obs; tr != nil {
			tr.SetNext(c.sp) // each per-backup apply invoke is a child
		}
		rs.req.recs = recs
		c.inv = rs.rm.sys.Runtime.BeginLimited(rs.primary.pr.Location(), rs.primary.pr.ID(),
			b.mp.pr.ID(), methodMemReplApply,
			proclet.Msg{Payload: &rs.req, Bytes: payloadBytes(recs)},
			shipAttempts)
		return
	}
	c.shipped()
}

// applied settles the apply to the backup at c.next.
func (c *commit) applied() {
	rs, b := c.rs, c.targets[c.next]
	_, err := c.inv.End()
	c.inv, rs.req.recs = nil, nil
	switch {
	case rs.epoch != c.epoch:
		c.shipped()
		return
	case err == nil:
		b.applied += uint64(len(c.batch))
	default:
		// A failed ship only convicts the backup while the primary
		// itself is healthy. If the primary's machine died mid-ship,
		// the invocation failure says nothing about the backup — and
		// dropping it here would erase the very replica failover is
		// about to promote. Abort the ship; the detector decides.
		m := rs.rm.sys.Cluster.Machine(rs.primary.pr.Location())
		if rs.primary.pr.State() != proclet.StateRunning || m == nil || m.Down() {
			c.shipped()
			return
		}
		rs.dropBackup(b, err)
	}
	c.next++
	c.nextBackup()
}

// shipped ends the batch: it becomes the spare and, unless the set failed
// over meanwhile, the pipe moves past it.
func (c *commit) shipped() {
	rs, batch := c.rs, c.batch
	rs.rm.sys.Obs.End(c.sp)
	clear(c.targets)
	clear(batch) // pin no value
	c.batch, c.sp, rs.spare = nil, 0, batch[:0]
	if rs.epoch != c.epoch {
		rs.inflight = false
		c.finish()
		return
	}
	rs.shippedSeq += uint64(len(batch))
	rs.shipped.Broadcast()
}

// hasTargeted reports whether any record in the batch is
// generation-targeted (resync snapshot entries).
func hasTargeted(batch []repRecord) bool {
	for _, r := range batch {
		if r.gen != 0 {
			return true
		}
	}
	return false
}

// filterForGen returns the records a backup of generation gen should
// apply: all broadcast records plus snapshot records targeted at it.
func filterForGen(batch []repRecord, gen uint64) []repRecord {
	out := make([]repRecord, 0, len(batch))
	for _, r := range batch {
		if r.gen == 0 || r.gen == gen {
			out = append(out, r)
		}
	}
	return out
}

// hasBackup reports whether b is still a member of the set.
func (rs *replicaSet) hasBackup(b *backupRef) bool {
	for _, x := range rs.backups {
		if x == b {
			return true
		}
	}
	return false
}

// removeBackup unlinks b from the set (shell lifecycle is the
// caller's).
func (rs *replicaSet) removeBackup(b *backupRef) {
	for i, x := range rs.backups {
		if x == b {
			rs.backups = append(rs.backups[:i], rs.backups[i+1:]...)
			return
		}
	}
}

// dropBackup removes a failed backup, destroys its shell, and kicks a
// resync to restore RF.
func (rs *replicaSet) dropBackup(b *backupRef, cause error) {
	rs.removeBackup(b)
	rs.destroyShell(b)
	rs.rm.BackupDrops.Inc()
	sys := rs.rm.sys
	sys.Trace.Emitf(sys.K.Now(), obs.KindRepl, rs.primary.pr.Name(),
		int(b.mp.pr.Location()), -1, "dropped backup %s: %v", b.mp.pr.Name(), cause.Error())
	rs.rm.scheduleResync(rs)
}

// destroyShell retires a backup proclet in whatever state the failure
// left it.
func (rs *replicaSet) destroyShell(b *backupRef) {
	sys := rs.rm.sys
	pr := b.mp.pr
	switch pr.State() {
	case proclet.StateOrphaned:
		sys.Sched.unregister(pr.ID())
		sys.Runtime.Abandon(pr)
	case proclet.StateRunning:
		sys.Sched.unregister(pr.ID())
		_ = sys.Runtime.Destroy(pr.ID())
	}
}

// scheduleResync starts (at most one) background re-replication for the
// set.
func (rm *ReplManager) scheduleResync(rs *replicaSet) {
	if rs.resyncing {
		return
	}
	rs.resyncing = true
	rm.spawnFlusher(rs)
}

// spawnFlusher runs the resync/flush process: top the set back up to
// RF, then drain whatever the pipe holds.
func (rm *ReplManager) spawnFlusher(rs *replicaSet) {
	rm.sys.K.Spawn(fmt.Sprintf("repl/resync-%s", rs.primary.pr.Name()), func(p *sim.Proc) {
		rs.resync(p)
	})
}

// resync restores the set's replication factor and flushes the pipe.
func (rs *replicaSet) resync(p *sim.Proc) {
	defer func() { rs.resyncing = false }()
	epoch := rs.epoch
	var c commit
	ship := func() error { c.start(rs, rs.nextSeq, epoch); p.Await(c.step(), c.step); return c.err }
	for rs.epoch == epoch && rs.primary.pr.State() == proclet.StateRunning &&
		len(rs.backups) < rs.rf-1 {
		if err := rs.addBackup(); err != nil {
			// No anti-affine machine can host a replica right now;
			// stay degraded and let the next membership change retry.
			sys := rs.rm.sys
			sys.Trace.Emitf(sys.K.Now(), obs.KindRepl, rs.primary.pr.Name(),
				int(rs.primary.pr.Location()), -1, "resync degraded: %v", err.Error())
			break
		}
		rs.rm.Resyncs.Inc()
		if err := ship(); err != nil {
			return
		}
	}
	if rs.epoch == epoch && len(rs.pending) > 0 {
		_ = ship()
	}
}

// noteOrphans parks a crash's orphans until the detector rules on the
// machine (handleCrash calls this when the plane is installed).
func (rm *ReplManager) noteOrphans(mid cluster.MachineID, orphans []*proclet.Proclet) {
	if len(orphans) == 0 {
		return
	}
	rm.pendingOrphans[mid] = append(rm.pendingOrphans[mid], orphans...)
}

// onConfirm reacts to a dead-machine confirmation: failover replicated
// primaries, drop replicas, recover everything else.
func (rm *ReplManager) onConfirm(mid cluster.MachineID) {
	rm.sys.K.Spawn(fmt.Sprintf("repl/recover-m%d", mid), func(p *sim.Proc) {
		rm.recoverMachine(p, mid, true)
	})
}

// onAlive fires on every successful heartbeat; it only acts when a
// machine crashed and restarted so fast the detector never confirmed
// it — the orphans still need re-placement.
func (rm *ReplManager) onAlive(mid cluster.MachineID) {
	if len(rm.pendingOrphans[mid]) == 0 {
		return
	}
	rm.sys.K.Spawn(fmt.Sprintf("repl/recover-m%d", mid), func(p *sim.Proc) {
		rm.recoverMachine(p, mid, false)
	})
}

// setsSorted returns the replica sets ordered by primary ID
// (deterministic recovery order).
func (rm *ReplManager) setsSorted() []*replicaSet {
	ids := make([]proclet.ID, 0, len(rm.sets))
	for id := range rm.sets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*replicaSet, len(ids))
	for i, id := range ids {
		out[i] = rm.sets[id]
	}
	return out
}

// recoverMachine is the detector-driven recovery controller for one
// machine: promote away replicated primaries, drop lost backups, and
// legacy-recover everything else. confirmed is false when the machine
// answered again before confirmation (quick restart): only physically
// orphaned proclets are touched then.
func (rm *ReplManager) recoverMachine(p *sim.Proc, mid cluster.MachineID, confirmed bool) {
	orphans := rm.pendingOrphans[mid]
	delete(rm.pendingOrphans, mid)

	for _, rs := range rm.setsSorted() {
		pr := rs.primary.pr
		switch {
		case pr.State() == proclet.StateOrphaned && pr.Location() == mid:
			rm.failoverSet(p, rs)
		case confirmed && pr.State() == proclet.StateRunning && pr.Location() == mid:
			// False confirmation: the machine is alive but partitioned
			// from the monitor. Depose the primary (its lease already
			// lapsed) and promote a reachable backup.
			rm.failoverSet(p, rs)
		}
	}
	for _, rs := range rm.setsSorted() {
		refs := append([]*backupRef(nil), rs.backups...)
		for _, b := range refs {
			if b.mp.pr.Location() != mid {
				continue
			}
			if b.mp.pr.State() == proclet.StateOrphaned || confirmed {
				rs.dropBackup(b, fmt.Errorf("machine %d confirmed lost", mid))
			}
		}
	}
	for _, pr := range orphans {
		if pr.State() != proclet.StateOrphaned {
			continue // already promoted, dropped, or destroyed
		}
		if mp, ok := pr.Data.(*MemoryProclet); ok && (mp.rs != nil || mp.isBackup) {
			continue // replication handled it above
		}
		rm.sys.Sched.recoverOne(p, pr)
	}
}

// failoverSet promotes the freshest reachable backup to primary. The
// primary proclet keeps its identity — Restore re-places the same
// proclet ID on the backup's machine and the backup's contents are
// adopted — so distributed pointers and sharded handles stay valid;
// callers chase the directory update like any migration. When every
// replica is gone the set falls back to the legacy path (Rebuilder or
// Abandon).
func (rm *ReplManager) failoverSet(p *sim.Proc, rs *replicaSet) {
	sys := rm.sys
	start := sys.K.Now()
	pr := rs.primary.pr
	old := pr.Location()

	var sp obs.SpanID
	if sys.Obs != nil {
		sp = sys.Obs.Start(obs.KindRepl, "promote", int(old), 0)
	}

	switch pr.State() {
	case proclet.StateOrphaned:
		// Crash path: already detached.
	case proclet.StateRunning:
		m := sys.Cluster.Machine(old)
		if m != nil && !m.Down() && rm.leaseValid(old) {
			// Never depose a primary that could still be serving: the
			// no-split-brain invariant outranks failover progress.
			sys.Trace.Emitf(start, obs.KindRepl, pr.Name(), int(old), -1,
				"failover refused: lease valid until %v", rm.det.LeaseExpiry(old))
			if sys.Obs != nil {
				sys.Obs.Str(sp, "refused", "lease valid")
				sys.Obs.End(sp)
			}
			return
		}
		if err := sys.Runtime.Depose(pr); err != nil {
			if sys.Obs != nil {
				sys.Obs.SetErr(sp, err)
				sys.Obs.End(sp)
			}
			return
		}
		rm.Deposes.Inc()
	default:
		sys.Obs.End(sp)
		return
	}

	// Abandon the in-flight pipe: unshipped records belong to writes
	// that were never acked (their writers abort via the epoch bump and
	// retry against the promoted replica).
	rs.epoch++
	rs.pending = nil
	rs.shippedSeq = rs.nextSeq
	rs.shipped.Broadcast()

	for {
		b := rs.freshestLive()
		if b == nil {
			if sys.Obs != nil {
				sys.Obs.Str(sp, "outcome", "fallback")
				sys.Obs.End(sp)
			}
			rm.fallbackRecover(p, rs)
			return
		}
		target := b.mp.pr.Location()
		rs.primary.objs, b.mp.objs = b.mp.objs, objTable{}
		if b.mp.nextObj > rs.primary.nextObj {
			rs.primary.nextObj = b.mp.nextObj
		}
		pr.ResetHeap()
		if err := sys.Runtime.Restore(p, pr, target); err != nil {
			// The backup's machine died during the restore; its shell
			// is now orphaned and the next candidate is tried.
			continue
		}
		// Transfer the heap accounting: retire the shell (freeing its
		// charge on target) and immediately re-charge it to the
		// promoted primary. No yield in between, so it cannot fail.
		heap := b.mp.pr.HeapBytes()
		rs.removeBackup(b)
		rs.destroyShell(b)
		if err := pr.GrowHeap(heap); err != nil {
			panic(fmt.Sprintf("core: failover re-charge of %d bytes on m%d failed: %v",
				heap, target, err))
		}
		rm.Promotions.Inc()
		rm.PromoteLatency.Record(int64(sys.K.Now() - start))
		sys.Sched.Recoveries.Inc()
		sys.Trace.Emitf(sys.K.Now(), obs.KindRepl, pr.Name(), int(old), int(target),
			"promoted backup gen=%d applied=%d heap=%d", b.gen, b.applied, heap)
		if sys.Obs != nil {
			sys.Obs.SetRoute(sp, int(old), int(target))
			sys.Obs.Num(sp, "gen", float64(b.gen))
			sys.Obs.End(sp)
		}
		rm.scheduleResync(rs)
		return
	}
}

// freshestLive returns the backup with the highest applied sequence
// whose machine is up (ties break toward the lowest proclet ID, which
// is creation order).
func (rs *replicaSet) freshestLive() *backupRef {
	var best *backupRef
	for _, b := range rs.backups {
		if b.mp.pr.State() != proclet.StateRunning {
			continue
		}
		m := rs.rm.sys.Cluster.Machine(b.mp.pr.Location())
		if m == nil || m.Down() {
			continue
		}
		if best == nil || b.applied > best.applied ||
			(b.applied == best.applied && b.mp.ID() < best.mp.ID()) {
			best = b
		}
	}
	return best
}

// fallbackRecover handles the every-replica-died case: the legacy
// recovery path re-places the primary empty (Rebuilder reconstructs it
// if installed, otherwise it is shed), then RF is restored around
// whatever came back.
func (rm *ReplManager) fallbackRecover(p *sim.Proc, rs *replicaSet) {
	sys := rm.sys
	pr := rs.primary.pr
	sys.Trace.Emitf(sys.K.Now(), obs.KindRepl, pr.Name(), int(pr.Location()), -1,
		"all replicas lost; falling back to rebuild/abandon")
	for _, b := range append([]*backupRef(nil), rs.backups...) {
		rs.removeBackup(b)
		rs.destroyShell(b)
	}
	sys.Sched.recoverOne(p, pr)
	if pr.State() == proclet.StateRunning {
		rm.scheduleResync(rs)
	} else {
		delete(rm.sets, pr.ID())
		rs.primary.rs = nil
	}
}

// release tears a replica set down when its primary is destroyed by
// the application.
func (rs *replicaSet) release() {
	rs.epoch++
	rs.pending = nil
	rs.shippedSeq = rs.nextSeq
	rs.shipped.Broadcast()
	for _, b := range append([]*backupRef(nil), rs.backups...) {
		rs.removeBackup(b)
		rs.destroyShell(b)
	}
	delete(rs.rm.sets, rs.primary.pr.ID())
	rs.primary.rs = nil
}
