package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/sim"
)

// The replicated write as it was written before replWrite and commit: a
// blocking method, run on the remote caller's handler process or on a
// local caller's own process, whose group commit parks on the set's
// shipped Cond and ships with blocking invocations.
// TestReplicatedWriteMatchesReferenceLoop holds the staged write to it.

// refCensus is what the reference writes went through, for the test to
// require of its tapes.
type refCensus struct {
	unreplicated int // writes that found no replica set, which the reference cannot stand for
	refused      int // writes a lapsed lease turned away
	aborted      int // writes a failover aborted mid-commit
	waiters      int // writers that found a shipper in flight
	behindOld    int // ... a shipper of an older epoch (ROADMAP item 2(i))
	lapsed       int // commits that went on past their primary's lease
	snapshots    int // batches a writer shipped with resync snapshot records in them
	shipper      map[*replicaSet]uint64
}

// refMemoryProcletOn is NewMemoryProcletOn with the mutators registered as
// the blocking methods they were. Backups need no such thing: nothing
// invokes a backup's mutators, and a promotion keeps the primary's
// proclet, registrations and all.
func refMemoryProcletOn(sys *System, name string, m cluster.MachineID, cen *refCensus) (*MemoryProclet, error) {
	pr, err := sys.Runtime.Spawn(name, m, 0)
	if err != nil {
		return nil, err
	}
	mp := &MemoryProclet{sys: sys, pr: pr}
	pr.Data = mp
	reads := &proclet.Methods{}
	registerReads(reads)
	pr.UseMethods(reads)
	for _, m := range []struct {
		method string
		apply  applyFn
	}{
		{methodMemPut, (*MemoryProclet).applyPut}, {methodMemDel, (*MemoryProclet).applyDel},
		{methodMemPutBatch, (*MemoryProclet).applyPutBatch}, {methodMemDelRange, (*MemoryProclet).applyDelRange},
		{methodMemTake, (*MemoryProclet).applyTake}, {methodMemUpdate, (*MemoryProclet).applyUpdate},
	} {
		pr.Handle(m.method, refMutator(mp, m.apply, cen))
	}
	sys.Sched.register(pr, KindMemory)
	return mp, nil
}

// refMutator is the blocking method a replicated primary's write was:
// check the lease, apply locally, group-commit the records, then ack.
func refMutator(mp *MemoryProclet, apply applyFn, cen *refCensus) proclet.Method {
	return func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		rs := mp.rs
		if rs == nil {
			cen.unreplicated++
			res, _, err := apply(mp, arg)
			return res, err
		}
		if err := mp.gate(); err != nil {
			cen.refused++
			return proclet.Msg{}, err
		}
		res, recs, err := apply(mp, arg)
		if err != nil {
			return proclet.Msg{}, err
		}
		if err := refReplicate(rs, ctx.Proc, recs, cen); err != nil {
			cen.aborted++
			return proclet.Msg{}, err
		}
		return res, nil
	}
}

func refReplicate(rs *replicaSet, p *sim.Proc, recs []repRecord, cen *refCensus) error {
	if len(recs) == 0 {
		return nil
	}
	epoch := rs.epoch
	seq := rs.enqueue(recs...)
	clear(recs)
	return refAwait(rs, p, seq, epoch, cen)
}

func refAwait(rs *replicaSet, p *sim.Proc, seq, epoch uint64, cen *refCensus) error {
	if rs.inflight {
		cen.waiters++
		if cen.shipper[rs] != epoch {
			cen.behindOld++
		}
		for rs.epoch == epoch && rs.shippedSeq < seq {
			rs.shipped.Wait(p)
		}
		if rs.epoch != epoch {
			return errReplEpoch
		}
		return nil
	}
	rs.inflight = true
	cen.shipper[rs] = epoch
	for len(rs.pending) > 0 && rs.epoch == epoch {
		batch := rs.pending
		rs.pending, rs.spare = rs.spare, nil
		refShipBatch(rs, p, batch, epoch, cen)
		clear(batch)
		rs.spare = batch[:0]
		if rs.epoch != epoch {
			break
		}
		rs.shippedSeq += uint64(len(batch))
		rs.shipped.Broadcast()
	}
	rs.inflight = false
	if rs.epoch != epoch {
		return errReplEpoch
	}
	if !rs.rm.leaseValid(rs.primary.pr.Location()) {
		cen.lapsed++
	}
	return nil
}

func refShipBatch(rs *replicaSet, p *sim.Proc, batch []repRecord, epoch uint64, cen *refCensus) {
	rs.rm.ReplBatches.Inc()
	tr := rs.rm.sys.Obs
	var sp obs.SpanID
	if tr != nil {
		sp = tr.Start(obs.KindRepl, "ship", int(rs.primary.pr.Location()), 0)
		tr.Num(sp, "records", float64(len(batch)))
	}
	if hasTargeted(batch) {
		cen.snapshots++
	}
	for _, b := range append([]*backupRef(nil), rs.backups...) {
		if rs.epoch != epoch {
			tr.End(sp)
			return
		}
		if !rs.hasBackup(b) {
			continue
		}
		recs := batch
		if hasTargeted(batch) {
			recs = filterForGen(batch, b.gen)
		}
		if len(recs) == 0 {
			b.applied += uint64(len(batch))
			continue
		}
		if tr != nil {
			tr.SetNext(sp)
		}
		rs.req.recs = recs
		_, err := rs.rm.sys.Runtime.BeginLimited(rs.primary.pr.Location(), rs.primary.pr.ID(),
			b.mp.pr.ID(), methodMemReplApply,
			proclet.Msg{Payload: &rs.req, Bytes: payloadBytes(recs)},
			shipAttempts).Await(p)
		rs.req.recs = nil
		if rs.epoch != epoch {
			tr.End(sp)
			return
		}
		if err != nil {
			m := rs.rm.sys.Cluster.Machine(rs.primary.pr.Location())
			if rs.primary.pr.State() != proclet.StateRunning || m == nil || m.Down() {
				tr.End(sp)
				return
			}
			rs.dropBackup(b, err)
			continue
		}
		b.applied += uint64(len(batch))
	}
	tr.End(sp)
}

// replTape is a random replicated-write run: stores, the writers that hit
// them from their own machines or others, and the faults meanwhile.
type replTape struct {
	machines int
	monitor  cluster.MachineID
	homes    []cluster.MachineID // each store's primary machine
	rf       []int
	writers  []replWriter
	faults   fault.Schedule
	until    sim.Time // writers stop issuing
	traced   bool
}

type replWriter struct {
	store int
	from  cluster.MachineID
	gap   time.Duration // at most this long between two ops
}

const replTapeEnd = 40 * sim.Millisecond

// newReplTape draws tape seed. Seed 1 is item 2(i)'s case
// (TestFailoverMidShipKeepsBatchWithItsShipper): the monitor falsely
// confirms the primary's machine while a ship waits out deadlines on a cut
// link, and writers of the new epoch queue behind the old shipper.
func newReplTape(seed int64) replTape {
	if seed == 1 {
		return replTape{machines: 4, monitor: 3, homes: []cluster.MachineID{1}, rf: []int{2},
			writers: []replWriter{{0, 2, 0}, {0, 2, 0}, {0, 2, 0}},
			faults: fault.Schedule{
				{At: ms(3), Op: fault.OpPartition, A: 3, B: 1},
				{At: ms(4), Op: fault.OpPartition, A: 1, B: 0},
				{At: ms(9.5), Op: fault.OpHeal, A: 1, B: 0},
			},
			until: ms(20)}
	}
	rng := rand.New(rand.NewSource(seed))
	tp := replTape{machines: 4 + rng.Intn(3), until: ms(8 + 8*rng.Float64()), traced: seed%4 == 0}
	m := func() cluster.MachineID { return cluster.MachineID(1 + rng.Intn(tp.machines-1)) }
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		tp.homes = append(tp.homes, cluster.MachineID(rng.Intn(tp.machines)))
		rf := 2
		if rng.Intn(5) == 0 {
			rf = 3
		}
		tp.rf = append(tp.rf, rf)
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		w := replWriter{store: rng.Intn(len(tp.homes)), gap: time.Duration(rng.Intn(40)) * time.Microsecond}
		w.from = tp.homes[w.store] // a third of them local
		if rng.Intn(3) > 0 {
			w.from = cluster.MachineID(rng.Intn(tp.machines))
		}
		tp.writers = append(tp.writers, w)
	}
	at := func(lo, hi float64) sim.Time { return ms(lo + (hi-lo)*rng.Float64()) }
	for i, n := 0, rng.Intn(4); i < n; i++ {
		t0 := at(1, 10)
		switch rng.Intn(4) {
		case 0: // a crash, most often of a primary's machine, mid-ship
			a := m()
			if rng.Intn(2) == 0 && tp.homes[0] != tp.monitor {
				a = tp.homes[0]
			}
			tp.faults = append(tp.faults, fault.Event{At: t0, Op: fault.OpCrash, A: a})
			if rng.Intn(3) > 0 {
				tp.faults = append(tp.faults, fault.Event{At: t0 + at(0.3, 4), Op: fault.OpRestart, A: a})
			}
		case 1: // the monitor loses sight of a machine: leases lapse, and a long cut confirms
			b := m()
			if rng.Intn(2) == 0 && tp.homes[0] != tp.monitor {
				b = tp.homes[0]
			}
			tp.faults = append(tp.faults, fault.Event{At: t0, Op: fault.OpPartition, A: tp.monitor, B: b},
				fault.Event{At: t0 + at(0.5, 8), Op: fault.OpHeal, A: tp.monitor, B: b})
		case 2: // a cut between two others: ships time out and backups are dropped
			a, b := m(), m()
			if a != b {
				tp.faults = append(tp.faults, fault.Event{At: t0, Op: fault.OpPartition, A: a, B: b},
					fault.Event{At: t0 + at(0.5, 4), Op: fault.OpHeal, A: a, B: b})
			}
		default: // a lossy link
			a, b := m(), cluster.MachineID(rng.Intn(tp.machines))
			if a != b {
				tp.faults = append(tp.faults, fault.Event{At: t0, Op: fault.OpDegrade, A: a, B: b, Drop: 0.3},
					fault.Event{At: t0 + at(0.5, 3), Op: fault.OpHeal, A: a, B: b})
			}
		}
	}
	return tp
}

// replStamp is the kernel's state after one event.
type replStamp struct {
	at                     sim.Time
	seq                    uint64
	pending, blocked, live int
}

// replTapeRun is everything one run of a tape produced.
type replTapeRun struct {
	stamps   []replStamp
	results  []string // every write's outcome, and when
	stores   []string // every replica's objects and heap, and each set's pipe
	trace    []string
	spans    []obs.Span
	counters []int64
	nextRand int64
	after    [2]int // Blocked and Live at the end
	switches uint64
	local    int // writes issued from the primary's machine
	remote   int
	cen      refCensus
}

// runReplTape plays tp on a fresh system, with the staged write (ref
// false) or the reference, and steps the kernel event by event to
// replTapeEnd.
func runReplTape(t *testing.T, seed int64, tp replTape, ref bool) replTapeRun {
	t.Helper()
	mcs := make([]cluster.MachineConfig, tp.machines)
	for i := range mcs {
		mcs[i] = cluster.MachineConfig{Cores: 4, MemBytes: 1 << 28}
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	s := NewSystem(cfg, mcs)
	defer s.Close()
	var out replTapeRun
	out.cen.shipper = make(map[*replicaSet]uint64)
	if tp.traced {
		s.EnableTracing()
	}
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)
	rm := s.EnableReplicationPlane(replication.Config{}, tp.monitor)
	stores := make([]*MemoryProclet, len(tp.homes))
	for i, home := range tp.homes {
		var err error
		if ref {
			stores[i], err = refMemoryProcletOn(s, fmt.Sprintf("store-%d", i), home, &out.cen)
		} else {
			stores[i], err = NewMemoryProcletOn(s, fmt.Sprintf("store-%d", i), home)
		}
		if err == nil {
			err = rm.Replicate(stores[i], tp.rf[i])
		}
		if err != nil {
			t.Fatalf("seed %d: store %d: %v", seed, i, err)
		}
	}
	in.Install(tp.faults)
	version := int64(0)
	for wi, w := range tp.writers {
		s.K.Spawn(fmt.Sprintf("writer-%d", wi), func(p *sim.Proc) {
			mp, rng := stores[w.store], rand.New(rand.NewSource(seed*100+int64(wi)))
			var b Batch
			for p.Now() < tp.until {
				if w.gap > 0 {
					p.Sleep(time.Duration(rng.Int63n(int64(w.gap))))
				}
				version++
				id := uint64(1 + rng.Intn(24))
				if w.from == mp.Location() {
					out.local++
				} else {
					out.remote++
				}
				var err error
				op := rng.Intn(8)
				switch op {
				case 0, 1:
					b.IDs, b.Vals, b.Sizes = b.IDs[:0], b.Vals[:0], b.Sizes[:0]
					for j := 1 + rng.Intn(6); j > 0; j-- {
						b.IDs = append(b.IDs, uint64(1+rng.Intn(24)))
						b.Vals = append(b.Vals, Int(version))
						b.Sizes = append(b.Sizes, 64+version%7)
					}
					err = mp.PutBatch(p, w.from, &b)
				case 2:
					err = mp.PutInt(p, w.from, id, version, 128)
				case 3:
					err = mp.Put(p, w.from, id, fmt.Sprintf("v%d", version), 100)
				case 4:
					_, err = s.Runtime.Invoke(p, w.from, 0, mp.ID(), methodMemDel, proclet.Msg{Word: id, Bytes: 8})
				case 5:
					_, err = mp.Take(p, w.from, id)
				case 6:
					err = mp.Update(p, w.from, id, 24, func(old any, exists bool) (any, int64, bool) {
						n, _ := old.(int64)
						return n + 1, 72, n%5 != 4
					})
				default:
					err = mp.DelRange(p, w.from, id, id+uint64(rng.Intn(4)))
				}
				out.results = append(out.results, fmt.Sprintf("%v writer %d op %d on %d from %d: %v", p.Now(), wi, op, id, w.from, err))
			}
		})
	}
	end := false
	s.K.Schedule(replTapeEnd, func() { end = true })
	for steps := 0; !end && s.K.Step(); steps++ {
		if steps > 3_000_000 {
			t.Fatalf("seed %d: no end after %d events", seed, steps)
		}
		out.stamps = append(out.stamps, replStamp{s.K.Now(), s.K.ReserveSeq(), s.K.Pending(), s.K.Blocked(), s.K.Live()})
	}
	out.after = [2]int{s.K.Blocked(), s.K.Live()}
	out.switches = s.K.Switches()
	out.nextRand = s.K.Rand().Int63()
	for _, mp := range stores {
		out.stores = append(out.stores, replicaContents(mp))
		if rs := mp.rs; rs != nil {
			out.stores = append(out.stores, fmt.Sprintf("epoch %d seq %d shipped %d inflight %v pending %d",
				rs.epoch, rs.nextSeq, rs.shippedSeq, rs.inflight, len(rs.pending)))
			for _, b := range rs.backups {
				out.stores = append(out.stores, fmt.Sprintf("gen %d applied %d: %s", b.gen, b.applied, replicaContents(b.mp)))
			}
		}
	}
	out.trace = s.Trace.Lines()
	if s.Obs != nil {
		out.spans = s.Obs.SpansByID()
	}
	rt, f, d := s.Runtime, s.Cluster.Fabric, rm.Detector()
	out.counters = []int64{
		rm.Promotions.Value(), rm.Deposes.Value(), rm.Resyncs.Value(), rm.BackupDrops.Value(),
		rm.ReplBatches.Value(), rm.ReplRecords.Value(),
		rt.Migrations.Value(), rt.DirectoryLookups.Value(), rt.LocalInvokes.Value(), rt.RemoteInvokes.Value(),
		rt.FastInvokes.Value(), rt.InvokeRetries.Value(), rt.InvokeTimeouts.Value(),
		f.Calls.Value(), f.FastCalls.Value(), f.Timeouts.Value(), f.Drops.Value(),
		d.HeartbeatsSent.Value(), d.HeartbeatsMissed.Value(), d.Confirms.Value(),
	}
	return out
}

// replicaContents renders a replica: where it is, its state, its heap and
// its objects in id order.
func replicaContents(mp *MemoryProclet) string {
	s := fmt.Sprintf("%s on m%d %v heap %d:", mp.pr.Name(), mp.Location(), mp.pr.State(), mp.HeapBytes())
	for _, id := range mp.objs.ids(nil, 0, topID) {
		e, _ := mp.objs.get(id)
		s += fmt.Sprintf(" %d=%v/%d", id, e.val.Any(), e.bytes)
	}
	return s
}

// TestReplicatedWriteMatchesReferenceLoop: a replicated write — a staged
// method (replWrite) whose commit is an Await stage, stepped by a local
// caller's invocation or a remote caller's staged handler process — runs
// every random tape exactly as the blocking method it replaced
// (refrepl_test.go). Two identically built systems play the same tape, one
// with each; they must agree after every single event — clock, sequence
// counter, pending events, blocked and live processes — and at the end on
// every write's outcome and instant, every replica's objects and heap and
// each set's pipe, the control-plane log, the spans on traced tapes, the
// replication, runtime, fabric and detector counters, and the kernel RNG's
// next draw; and the staged run may switch no more than the reference.
//
// The tapes cover rf 2 and 3; writers on the primary's machine and on
// others, several on one set, so writers queue behind a shipper; crashes
// of primaries mid-ship, with failover, and of backups; the monitor losing
// sight of a primary, so its lease lapses mid-commit and a long cut
// deposes it; cut and lossy links that drop backups, whose resync
// snapshots then share batches with writes; and item 2(i)'s tape, where a
// writer of a new epoch waits behind an old shipper (seed 1). The set's
// resync process awaits the same commit stage as the staged write in both
// runs. The test fails if any of these never happened across the seeds.
//
// Hand mutations this fails on (each tried): a shipped batch not
// broadcast; the epoch check after an apply dropped; the lease gate
// skipped; resync snapshot records not filtered per backup; and an old
// shipper waking the new epoch's waiters as it leaves, which is item
// 2(i)'s fix, for the PR that makes it.
func TestReplicatedWriteMatchesReferenceLoop(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var cen refCensus
	var local, remote, promotions, deposes, resyncs, drops, rf3, traced, events int
	for seed := int64(1); seed <= seeds; seed++ {
		tp := newReplTape(seed)
		want := runReplTape(t, seed, tp, true)
		got := runReplTape(t, seed, tp, false)
		for i := 0; i < min(len(got.stamps), len(want.stamps)); i++ {
			if got.stamps[i] != want.stamps[i] {
				t.Fatalf("seed %d: after event %d: staged write %+v, reference %+v", seed, i, got.stamps[i], want.stamps[i])
			}
		}
		if len(got.stamps) != len(want.stamps) {
			t.Fatalf("seed %d: the staged write ran %d events, the reference %d", seed, len(got.stamps), len(want.stamps))
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"write outcomes", got.results, want.results},
			{"replicas and pipes", got.stores, want.stores},
			{"control-plane log", got.trace, want.trace},
			{"spans", got.spans, want.spans},
			{"counters", got.counters, want.counters},
			{"next RNG draw", got.nextRand, want.nextRand},
			{"Blocked and Live at the end", got.after, want.after},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ\nstaged write: %v\nreference:    %v", seed, c.what, c.got, c.want)
			}
		}
		if got.switches > want.switches {
			t.Errorf("seed %d: the staged write switched %d times, the reference %d", seed, got.switches, want.switches)
		}
		c := want.cen
		if c.unreplicated > 0 {
			t.Fatalf("seed %d: %d writes found their store unreplicated; the reference cannot stand for those", seed, c.unreplicated)
		}
		cen.refused += c.refused
		cen.aborted += c.aborted
		cen.waiters += c.waiters
		cen.behindOld += c.behindOld
		cen.lapsed += c.lapsed
		cen.snapshots += c.snapshots
		local += want.local
		remote += want.remote
		promotions += int(want.counters[0])
		deposes += int(want.counters[1])
		resyncs += int(want.counters[2])
		drops += int(want.counters[3])
		for _, rf := range tp.rf {
			if rf == 3 {
				rf3++
			}
		}
		if tp.traced {
			traced++
		}
		events += len(got.stamps)
	}
	t.Logf("%d events over %d seeds; %d local and %d remote writes; census %+v; %d promotions, %d deposes, %d resyncs, %d backups dropped",
		events, seeds, local, remote, cen, promotions, deposes, resyncs, drops)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"write from the primary's machine", local},
		{"write from another machine", remote},
		{"writer queued behind a shipper", cen.waiters},
		{"writer of a new epoch behind an old shipper (item 2(i))", cen.behindOld},
		{"write aborted by a failover mid-commit", cen.aborted},
		{"write refused under a lapsed lease", cen.refused},
		{"commit that outlived its primary's lease", cen.lapsed},
		{"resync snapshot shipped by a writer", cen.snapshots},
		{"promotion", promotions},
		{"depose", deposes},
		{"resync", resyncs},
		{"backup dropped", drops},
		{"rf 3 store", rf3},
		{"traced tape", traced},
	} {
		if c.n == 0 {
			t.Errorf("no tape had a %s", c.what)
		}
	}
}
