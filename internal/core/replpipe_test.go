package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The log pipe reuses its buffers (replicaSet.await states the ownership
// rule). These tests pin what that costs — nothing, per steady-state
// write — and the three situations in which a reused buffer could be
// read by the wrong party: a request that lands after its call timed out,
// a failover with a batch in flight, and per-backup filtering at rf = 3.

// replicatedStore places a store on machine 1 of a replSystem monitored
// from machine 3, so its first backup lands on machine 0 and machine 2 is
// free for writers; a link fault between 1 and 0 then touches nothing but
// log shipping.
func replicatedStore(t *testing.T, rf int) (*System, *ReplManager, *fault.Injector, *MemoryProclet, *replicaSet) {
	t.Helper()
	s, rm, in := replSystem(t, 3)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, rf); err != nil {
		t.Fatal(err)
	}
	rs := rm.sets[mp.ID()]
	if at := rs.backups[0].mp.Location(); at != 0 {
		t.Fatalf("first backup on machine %d, the tests below assume 0", at)
	}
	return s, rm, in, mp, rs
}

// ms is f milliseconds of virtual time.
func ms(f float64) sim.Time { return sim.Time(f * float64(time.Millisecond)) }

// sameObjects reports whether two replicas hold the same objects.
func sameObjects(t *testing.T, what string, got, want *MemoryProclet) {
	t.Helper()
	if got.NumObjects() != want.NumObjects() {
		t.Errorf("%s holds %d objects, the primary %d", what, got.NumObjects(), want.NumObjects())
	}
	for id, w := range want.objs.all() {
		if g, ok := got.objs.get(id); !ok || g != w {
			t.Errorf("%s obj %d = %v (present=%v), the primary has %v", what, id, g, ok, w)
		}
	}
	if got.HeapBytes() != want.HeapBytes() {
		t.Errorf("%s heap %d, the primary %d", what, got.HeapBytes(), want.HeapBytes())
	}
}

// writers starts n processes on machine 2 that overwrite objects 1..16 in
// batches of four with ever newer values while on(now) holds, and returns
// the ids whose writes were acknowledged.
func writers(s *System, mp *MemoryProclet, n int, on func(sim.Time) bool, until sim.Time) map[uint64]bool {
	acked := make(map[uint64]bool)
	version := int64(0)
	for w := 0; w < n; w++ {
		w := w
		s.K.Spawn("writer", func(p *sim.Proc) {
			var b Batch
			for round := w; p.Now() < until; round++ {
				if !on(p.Now()) {
					p.Sleep(20 * time.Microsecond)
					continue
				}
				b.IDs, b.Vals, b.Sizes = b.IDs[:0], b.Vals[:0], b.Sizes[:0]
				for j := 0; j < 4; j++ {
					version++
					b.IDs = append(b.IDs, uint64((round*4+j)%16+1))
					b.Vals = append(b.Vals, Int(version))
					b.Sizes = append(b.Sizes, 64+version%7)
				}
				if err := mp.PutBatch(p, 2, &b); err == nil {
					for _, id := range b.IDs {
						acked[id] = true
					}
				}
			}
		})
	}
	return acked
}

func TestReplicatedWriteSteadyStateAllocs(t *testing.T) {
	s, _, _, mp, _ := replicatedStore(t, 2)
	// A server-shaped batch: eight scalars, one of them named twice, the
	// way a serving batch repeats a hot key.
	b := Batch{IDs: make([]uint64, 8), Vals: make([]Value, 8), Sizes: make([]int64, 8)}
	for i := range b.IDs {
		b.IDs[i], b.Vals[i], b.Sizes[i] = uint64(i+1), Int(int64(i)<<40), 128
	}
	b.IDs[7] = b.IDs[0]
	var one any = int64(7) << 40 // boxed once, as a caller that keeps its values would
	write := (*MemoryProclet).PutBatch
	writes := map[string]func(*MemoryProclet, *sim.Proc, cluster.MachineID, *Batch) error{
		"PutBatch": (*MemoryProclet).PutBatch,
		"Put": func(mp *MemoryProclet, p *sim.Proc, from cluster.MachineID, _ *Batch) error {
			return mp.Put(p, from, 3, one, 128)
		},
		"PutInt": func(mp *MemoryProclet, p *sim.Proc, from cluster.MachineID, _ *Batch) error {
			return mp.PutInt(p, from, 3, 9<<40, 128)
		},
	}
	s.K.Spawn("writer", func(p *sim.Proc) {
		// Every Run below executes one whole write (the tail of one and the
		// head of the next): Stop ends it when the process next parks.
		for {
			if err := write(mp, p, 2, &b); err != nil {
				t.Errorf("write: %v", err)
			}
			s.K.Stop()
		}
	})
	step := func() { s.K.Run() }
	for _, name := range []string{"PutBatch", "Put", "PutInt"} {
		write = writes[name]
		for i := 0; i < 20; i++ { // grow the object table, both pipe buffers and the pools
			step()
		}
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Errorf("rf=2 %s over existing keys: %v allocs per write, want 0", name, got)
		}
	}
}

// A ship times out while its request is still crossing a slow link, and
// the request lands on the live backup while the shipper is retrying and
// the writers behind it fill the pipe's other buffer. It must not be
// applied: the backup executes exactly one apply per batch. Later the
// link is cut, the backup is dropped with the shipper's last attempt
// unanswered, and its replacement ends up identical to the primary.
func TestLateShipIsNeverApplied(t *testing.T) {
	s, rm, in, mp, rs := replicatedStore(t, 2)
	old := rs.backups[0].mp
	// Requests sent inside the window land 2.5 ms later, past the 2 ms call
	// deadline the fault plane arms. Nothing is written from 5 to 6 ms, so
	// the pipe is idle when the counts are compared.
	in.Install(fault.Schedule{
		{At: ms(1), Op: fault.OpDegrade, A: 1, B: 0, Extra: 2500 * time.Microsecond},
		{At: ms(1.2), Op: fault.OpHeal, A: 1, B: 0},
		{At: ms(6), Op: fault.OpPartition, A: 1, B: 0},
		{At: ms(14), Op: fault.OpHeal, A: 1, B: 0},
	})
	acked := writers(s, mp, 3, func(now sim.Time) bool { return now < ms(5) || now >= ms(6) }, ms(16))

	s.K.RunUntil(ms(5.9))
	if rs.inflight || len(rs.pending) != 0 {
		t.Fatalf("pipe not idle at 5.9ms (inflight=%v pending=%d)", rs.inflight, len(rs.pending))
	}
	if n := s.Runtime.InvokeTimeouts.Value(); n == 0 {
		t.Fatal("no ship timed out: the slow window missed every request")
	}
	if got, want := old.pr.Invocations(), rm.ReplBatches.Value(); got != want {
		t.Errorf("backup executed %d applies for %d batches: a request that landed after its deadline was applied", got, want)
	}
	if rm.BackupDrops.Value() != 0 {
		t.Fatalf("backup dropped in phase one (%d): the retry should have gone through", rm.BackupDrops.Value())
	}
	sameObjects(t, "backup at 5.9ms", old, mp)

	s.K.RunUntil(ms(40))
	if rm.BackupDrops.Value() == 0 || len(rs.backups) != 1 || rs.backups[0].mp == old {
		t.Fatalf("drops=%d backups=%d: want the unreachable backup dropped and replaced", rm.BackupDrops.Value(), len(rs.backups))
	}
	if rs.inflight || len(rs.pending) != 0 {
		t.Fatalf("pipe not drained at 40ms (inflight=%v pending=%d)", rs.inflight, len(rs.pending))
	}
	sameObjects(t, "replacement backup", rs.backups[0].mp, mp)
	if len(acked) != 16 {
		t.Errorf("%d of 16 ids acked", len(acked))
	}
	for id := range acked {
		if _, ok := mp.objs.get(id); !ok {
			t.Errorf("acked obj %d lost", id)
		}
	}
}

// The detector falsely confirms the primary's machine while the shipper
// waits out a deadline on a cut link: the set fails over with the old
// shipper still parked in shipBatch, and writers of the new epoch queue
// behind it. Until it leaves, the set admits no second shipper (they would
// share the one request struct) and no buffer a writer can append to may
// be the storage of its batch.
func TestFailoverMidShipKeepsBatchWithItsShipper(t *testing.T) {
	s, rm, in, mp, rs := replicatedStore(t, 2)
	in.Install(fault.Schedule{
		{At: ms(3), Op: fault.OpPartition, A: 3, B: 1}, // the monitor loses sight of the primary
		{At: ms(4), Op: fault.OpPartition, A: 1, B: 0}, // and a ship takes three 2 ms deadlines
		{At: ms(9.5), Op: fault.OpHeal, A: 1, B: 0},
	})
	acked := writers(s, mp, 3, func(sim.Time) bool { return true }, ms(20))

	var lastBatch *repRecord
	var lastEpoch uint64
	acrossBump, queuedBehind := false, false
	s.K.Spawn("sampler", func(p *sim.Proc) {
		for ; p.Now() < ms(30); p.Sleep(5 * time.Microsecond) {
			if len(rs.req.recs) == 0 {
				lastBatch = nil
				continue
			}
			if !rs.inflight {
				t.Errorf("%v: a batch is in flight but the set admits another shipper (epoch %d)", p.Now(), rs.epoch)
				return
			}
			inFlight := &rs.req.recs[0]
			if inFlight == lastBatch && rs.epoch != lastEpoch {
				acrossBump = true
			}
			if acrossBump && inFlight == lastBatch && len(rs.pending) > 0 {
				queuedBehind = true
			}
			lastBatch, lastEpoch = inFlight, rs.epoch
			for name, buf := range map[string][]repRecord{"pending": rs.pending, "spare": rs.spare} {
				if cap(buf) > 0 && &buf[:1][0] == inFlight {
					t.Errorf("%v: %s is the storage of the batch in flight (epoch %d)", p.Now(), name, rs.epoch)
					return
				}
			}
		}
	})
	s.K.RunUntil(ms(40))

	if rm.Deposes.Value() != 1 || rm.Promotions.Value() != 1 {
		t.Fatalf("deposes=%d promotions=%d, want one false confirmation and one promotion", rm.Deposes.Value(), rm.Promotions.Value())
	}
	if !acrossBump || !queuedBehind {
		t.Fatalf("batch in flight across the epoch bump: %v, new-epoch records queued behind it: %v — the test missed its case", acrossBump, queuedBehind)
	}
	if rs.inflight || len(rs.pending) != 0 || len(rs.backups) != 1 {
		t.Fatalf("pipe not settled at 40ms (inflight=%v pending=%d backups=%d)", rs.inflight, len(rs.pending), len(rs.backups))
	}
	sameObjects(t, "resynced backup", rs.backups[0].mp, mp)
	for id := range acked {
		if _, ok := mp.objs.get(id); !ok {
			t.Errorf("acked obj %d lost", id)
		}
	}
}

// At rf = 3, losing one backup puts a resync snapshot into the pipe beside
// live writes: a batch then holds records for one backup only, and the
// shipper sends each backup its own selection through the one request
// struct. Both must end up identical to the primary.
func TestResyncSnapshotShipsEachBackupItsOwnRecords(t *testing.T) {
	s, rm, in, mp, rs := replicatedStore(t, 3)
	survivor := rs.backups[0]
	lost := rs.backups[1].mp.Location()
	in.Install(fault.Schedule{{At: ms(2), Op: fault.OpCrash, A: lost}})
	writers(s, mp, 3, func(sim.Time) bool { return true }, ms(12))
	s.K.RunUntil(ms(40))

	if rm.Resyncs.Value() != 1 || len(rs.backups) != 2 || rs.backups[0] != survivor {
		t.Fatalf("resyncs=%d backups=%d: want the crashed backup replaced beside the survivor", rm.Resyncs.Value(), len(rs.backups))
	}
	if lag := rm.Status()[0].Backups[0].Lag; lag != 0 {
		t.Errorf("surviving backup lags %d records at 40ms", lag)
	}
	sameObjects(t, "surviving backup", survivor.mp, mp)
	sameObjects(t, "resynced backup", rs.backups[1].mp, mp)
	// The survivor was sent the live records only: 16 objects' worth of
	// snapshot went to the newcomer alone.
	if d := rs.backups[1].mp.pr.Invocations(); d == 0 || survivor.mp.pr.Invocations() <= d {
		t.Errorf("applies: survivor %d, newcomer %d", survivor.mp.pr.Invocations(), d)
	}
}
