package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/sim"
)

// replSystem builds a 4-machine system with the durability plane
// enabled, monitored from machine `monitor`.
func replSystem(t *testing.T, monitor cluster.MachineID) (*System, *ReplManager, *fault.Injector) {
	t.Helper()
	s := testSystem(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 28},
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 28},
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 28},
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 28},
	)
	in := fault.New(s.K, s.Cluster, s.Trace)
	s.AttachInjector(in)
	rm := s.EnableReplicationPlane(replication.Config{}, monitor)
	return s, rm, in
}

func TestReplicateShipsWritesToBackup(t *testing.T) {
	s, rm, _ := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	if len(rm.sets) != 1 || len(rm.sets[mp.ID()].backups) != 1 {
		t.Fatalf("%d replica sets, want one set with one backup", len(rm.sets))
	}
	if bm := rm.sets[mp.ID()].backups[0].mp.Location(); bm == 1 {
		t.Fatalf("backup placed on the primary's machine %d", bm)
	}

	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := uint64(1); i <= 10; i++ {
			if err := mp.Put(p, 3, i, int(i*100), 64); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
	})
	s.K.RunUntil(sim.Time(10 * time.Millisecond))

	b := rm.sets[mp.ID()].backups[0]
	if got := b.mp.objs.len(); got != 10 {
		t.Fatalf("backup holds %d objects, want 10", got)
	}
	if v := b.mp.objs.all()[7].val.Any().(int); v != 700 {
		t.Errorf("backup obj 7 = %d, want 700", v)
	}
	if b.mp.pr.HeapBytes() != mp.pr.HeapBytes() {
		t.Errorf("backup heap %d != primary heap %d", b.mp.pr.HeapBytes(), mp.pr.HeapBytes())
	}
	if rm.ReplRecords.Value() != 10 {
		t.Errorf("ReplRecords = %d, want 10", rm.ReplRecords.Value())
	}
	if rm.ReplBatches.Value() > 10 || rm.ReplBatches.Value() == 0 {
		t.Errorf("ReplBatches = %d, want 1..10", rm.ReplBatches.Value())
	}
}

func TestFailoverPromotesBackupWithoutDataLoss(t *testing.T) {
	s, rm, in := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	backupMachine := rm.sets[mp.ID()].backups[0].mp.pr.Location()

	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := uint64(1); i <= 20; i++ {
			if err := mp.Put(p, 3, i, int(i), 64); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
		in.Apply(fault.Event{Op: fault.OpCrash, A: 1})
		// Every acked write must be readable after failover; the invoke
		// retry budget (~25ms) comfortably covers the ~3ms detect window.
		for i := uint64(1); i <= 20; i++ {
			v, err := mp.Get(p, 3, i)
			if err != nil {
				t.Errorf("get %d after crash: %v", i, err)
				continue
			}
			if v.(int) != int(i) {
				t.Errorf("obj %d = %v, want %d", i, v, i)
			}
		}
		if loc := mp.Location(); loc != backupMachine {
			t.Errorf("promoted location = %d, want backup machine %d", loc, backupMachine)
		}
	})
	s.K.RunUntil(sim.Time(50 * time.Millisecond))

	if rm.Promotions.Value() != 1 {
		t.Errorf("Promotions = %d, want 1", rm.Promotions.Value())
	}
	if rm.Deposes.Value() != 0 {
		t.Errorf("Deposes = %d, want 0 for a real crash", rm.Deposes.Value())
	}
	if rm.PromoteLatency.Mean() <= 0 {
		t.Errorf("PromoteLatency mean = %v, want the promotion's positive latency", rm.PromoteLatency.Mean())
	}
	// Re-replication restored RF=2 on a machine that is neither the new
	// primary nor the dead one.
	if len(rm.sets) != 1 || len(rm.sets[mp.ID()].backups) != 1 {
		t.Fatalf("post-failover: %d replica sets, want one with one backup (resynced)", len(rm.sets))
	}
	if bm := rm.sets[mp.ID()].backups[0].mp.Location(); bm == backupMachine || bm == 1 {
		t.Errorf("resynced backup on machine %d, want anti-affine to %d and dead 1", bm, backupMachine)
	}
	nb := rm.sets[mp.ID()].backups[0]
	if got := nb.mp.objs.len(); got != 20 {
		t.Errorf("resynced backup holds %d objects, want 20", got)
	}
}

func TestPartitionedPrimaryNeverServesAfterLeaseLapse(t *testing.T) {
	s, rm, in := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}

	var lastAcked int
	s.K.Spawn("writer", func(p *sim.Proc) {
		// Single writer on m3 (never partitioned from anyone): every
		// acked write must be durable across the failover.
		for i := 1; ; i++ {
			if p.Now() > sim.Time(30*time.Millisecond) {
				return
			}
			if err := mp.Put(p, 3, 1, i, 64); err == nil {
				lastAcked = i
			}
			p.Sleep(100 * time.Microsecond)
		}
	})
	s.K.Spawn("partitioner", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		// Cut only monitor<->primary: the primary stays up and reachable
		// from the writer, but its lease lapses and the detector falsely
		// confirms it dead.
		in.Apply(fault.Event{Op: fault.OpPartition, A: 0, B: 1})
	})
	s.K.RunUntil(sim.Time(35 * time.Millisecond))

	if rm.Deposes.Value() != 1 {
		t.Fatalf("Deposes = %d, want 1 (false confirmation deposes, never crashes)", rm.Deposes.Value())
	}
	if rm.Promotions.Value() != 1 {
		t.Fatalf("Promotions = %d, want 1", rm.Promotions.Value())
	}
	if m := s.Cluster.Machine(1); m.Down() {
		t.Fatal("machine 1 should still be up (it was only partitioned)")
	}
	// No split-brain: the promoted primary must hold the newest acked
	// value. If the deposed primary had served any write after its lease
	// lapsed, that ack would be missing here.
	var got int
	s.K.Spawn("reader", func(p *sim.Proc) {
		v, err := mp.Get(p, 3, 1)
		if err != nil {
			t.Errorf("final get: %v", err)
			return
		}
		got = v.(int)
	})
	s.K.RunUntil(sim.Time(40 * time.Millisecond))
	if got != lastAcked {
		t.Errorf("promoted primary holds %d, last acked write was %d (split-brain or lost ack)", got, lastAcked)
	}
	if lastAcked < 10 {
		t.Errorf("only %d writes acked; writer should make progress before and after failover", lastAcked)
	}
}

func TestAllReplicasDeadFallsBackToRebuilder(t *testing.T) {
	s, rm, in := replSystem(t, 3) // monitor on m3 so m0 can die
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	backupMachine := rm.sets[mp.ID()].backups[0].mp.pr.Location()

	golden := map[uint64]int{1: 11, 2: 22}
	s.SetRebuilder(func(p *sim.Proc, m *MemoryProclet) error {
		for id, v := range golden {
			if err := m.Put(p, 3, id, v, 64); err != nil {
				return err
			}
		}
		return nil
	})

	s.K.Spawn("driver", func(p *sim.Proc) {
		for id, v := range golden {
			if err := mp.Put(p, 3, id, v, 64); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		// Kill both replicas at once: replication cannot help, the
		// legacy rebuild path must take over.
		in.Apply(fault.Event{Op: fault.OpCrash, A: 1})
		in.Apply(fault.Event{Op: fault.OpCrash, A: backupMachine})
		v, err := mp.Get(p, 3, 1)
		if err != nil {
			t.Errorf("get after double crash: %v", err)
			return
		}
		if v.(int) != 11 {
			t.Errorf("rebuilt obj 1 = %v, want 11", v)
		}
	})
	s.K.RunUntil(sim.Time(60 * time.Millisecond))

	if rm.Promotions.Value() != 0 {
		t.Errorf("Promotions = %d, want 0 when every replica died", rm.Promotions.Value())
	}
	if s.Sched.Recoveries.Value() == 0 {
		t.Error("expected a legacy recovery")
	}
	if mp.pr.State() != proclet.StateRunning {
		t.Errorf("primary state = %v, want running", mp.pr.State())
	}
}

func TestReplicateValidation(t *testing.T) {
	s, rm, _ := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 1); err != nil {
		t.Errorf("rf=1 should be a no-op, got %v", err)
	}
	if mp.rs != nil {
		t.Fatal("rf=1 must not create a replica set")
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err == nil {
		t.Error("double Replicate should fail")
	}
	b := rm.sets[mp.ID()].backups[0].mp
	if err := rm.Replicate(b, 2); err == nil {
		t.Error("replicating a backup should fail")
	}

	// Unreplicated proclets stay off the replication plane entirely.
	plain, err := NewMemoryProcletOn(s, "plain", 2)
	if err != nil {
		t.Fatal(err)
	}
	before := rm.ReplRecords.Value()
	s.K.Spawn("driver", func(p *sim.Proc) {
		for i := uint64(1); i <= 5; i++ {
			if err := plain.Put(p, 3, i, i, 64); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})
	s.K.RunUntil(sim.Time(5 * time.Millisecond))
	if got := rm.ReplRecords.Value(); got != before {
		t.Errorf("unreplicated writes generated %d records", got-before)
	}
}

func TestReplicatedDestroyTearsDownBackups(t *testing.T) {
	s, rm, _ := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(rm.sets[mp.ID()].backups); got != 2 {
		t.Fatalf("backups = %d, want 2", got)
	}
	backups := make([]*MemoryProclet, 0, 2)
	for _, b := range rm.sets[mp.ID()].backups {
		backups = append(backups, b.mp)
	}
	if err := mp.Destroy(); err != nil {
		t.Fatal(err)
	}
	for i, b := range backups {
		if st := b.pr.State(); st != proclet.StateDead {
			t.Errorf("backup %d state = %v, want dead", i, st)
		}
	}
	if len(rm.sets) != 0 {
		t.Errorf("sets = %d, want 0", len(rm.sets))
	}
	for _, m := range s.Cluster.Machines() {
		if used := m.MemUsed(); used != 0 {
			t.Errorf("machine %d leaks %d bytes after destroy", m.ID, used)
		}
	}
}

func TestReplicatedTakeAndUpdateShipEffects(t *testing.T) {
	s, rm, _ := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("driver", func(p *sim.Proc) {
		if err := mp.Put(p, 3, 1, 10, 64); err != nil {
			t.Fatalf("put: %v", err)
		}
		if err := mp.Update(p, 3, 1, 8, func(old any, exists bool) (any, int64, bool) {
			return old.(int) + 5, 64, true
		}); err != nil {
			t.Fatalf("update: %v", err)
		}
		if err := mp.Put(p, 3, 2, 99, 64); err != nil {
			t.Fatalf("put 2: %v", err)
		}
		if v, err := mp.Take(p, 3, 2); err != nil || v.(int) != 99 {
			t.Fatalf("take = %v, %v", v, err)
		}
	})
	s.K.RunUntil(sim.Time(10 * time.Millisecond))

	b := rm.sets[mp.ID()].backups[0].mp
	if got := b.objs.len(); got != 1 {
		t.Fatalf("backup objects = %d, want 1 (take's delete must replicate)", got)
	}
	if v := b.objs.all()[1].val.Any().(int); v != 15 {
		t.Errorf("backup obj 1 = %d, want 15 (update's result must replicate)", v)
	}
}

func TestPrimaryCrashMidShipKeepsBackupAndPromotes(t *testing.T) {
	// A writer keeps writing straight through the crash instant, so a
	// log ship is in flight from the primary's machine when it dies.
	// The resulting apply failure ("source node is down") must not be
	// blamed on the backup: dropping it would leave failover with no
	// replica to promote and lose every acked write.
	s, rm, in := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	s.K.Spawn("writer", func(p *sim.Proc) {
		for i := uint64(1); p.Now() < sim.Time(4*time.Millisecond); i++ {
			if err := mp.Put(p, 3, i, int(i), 64); err == nil {
				acked = append(acked, i)
			}
		}
	})
	in.Install(fault.Schedule{{At: sim.Time(2 * time.Millisecond), Op: fault.OpCrash, A: 1}})
	s.K.RunUntil(sim.Time(50 * time.Millisecond))

	if rm.Promotions.Value() != 1 {
		t.Fatalf("Promotions = %d, want 1 (backup must survive the primary's mid-ship crash)",
			rm.Promotions.Value())
	}
	var lost int
	s.K.Spawn("verify", func(p *sim.Proc) {
		for _, k := range acked {
			if v, err := mp.Get(p, 3, k); err != nil || v.(int) != int(k) {
				lost++
			}
		}
	})
	s.K.RunUntil(sim.Time(100 * time.Millisecond))
	if lost > 0 {
		t.Errorf("%d of %d acked writes lost after failover", lost, len(acked))
	}
}

// TestPutBatchCopiesOutOfCallersBatch: a writer that refills one batch
// for every PutBatch must not disturb what earlier calls stored — on the
// primary, in the shipped log records, or on the backup.
func TestPutBatchCopiesOutOfCallersBatch(t *testing.T) {
	s, rm, _ := replSystem(t, 0)
	mp, err := NewMemoryProcletOn(s, "store", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("writer", func(p *sim.Proc) {
		var b Batch
		for round := 0; round < 5; round++ {
			b.IDs, b.Vals, b.Sizes = b.IDs[:0], b.Vals[:0], b.Sizes[:0]
			for j := 0; j < 4; j++ {
				id := uint64(round*4 + j + 1)
				b.IDs = append(b.IDs, id)
				b.Vals = append(b.Vals, refTo(int(id*7)))
				b.Sizes = append(b.Sizes, 64+int64(id))
			}
			if err := mp.PutBatch(p, 3, &b); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}
	})
	s.K.RunUntil(sim.Time(10 * time.Millisecond))

	backup := rm.sets[mp.ID()].backups[0].mp
	for _, objs := range []map[objID]objEntry{mp.objs.all(), backup.objs.all()} {
		if len(objs) != 20 {
			t.Fatalf("%d objects stored, want 20", len(objs))
		}
		for id := uint64(1); id <= 20; id++ {
			if e := objs[id]; e.val != refTo(int(id*7)) || e.bytes != 64+int64(id) {
				t.Errorf("obj %d = %v (%d bytes), want %d (%d bytes)", id, e.val.Any(), e.bytes, id*7, 64+id)
			}
		}
	}
}
