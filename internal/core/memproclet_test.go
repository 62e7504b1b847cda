package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// testSystem builds a 2-machine system with generous defaults and a
// fast-reacting scheduler (not started unless the test starts it).
func testSystem(t *testing.T, machines ...cluster.MachineConfig) *System {
	t.Helper()
	if len(machines) == 0 {
		machines = []cluster.MachineConfig{
			{Cores: 8, MemBytes: 1 << 30},
			{Cores: 8, MemBytes: 1 << 30},
		}
	}
	cfg := DefaultConfig()
	return NewSystem(cfg, machines)
}

func TestMaxShardBytesDerivation(t *testing.T) {
	want := int64(62_500_000) // 5ms at the fabric's 12.5 GB/s
	if got := MaxShardBytes(); got != want {
		t.Errorf("MaxShardBytes = %d, want %d", got, want)
	}
}

func TestMemoryProcletPutGet(t *testing.T) {
	s := testSystem(t)
	mp, err := NewMemoryProcletOn(s, "mem", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.K.Spawn("client", func(p *sim.Proc) {
		ptr, err := NewPtr(p, 0, mp, "hello", 100)
		if err != nil {
			t.Errorf("NewPtr: %v", err)
			return
		}
		v, err := ptr.deref(p, 0)
		if err != nil || v != "hello" {
			t.Errorf("Deref = %q, %v", v, err)
		}
		// Heap accounting: value + overhead.
		if mp.HeapBytes() != 100+ObjectOverheadBytes {
			t.Errorf("HeapBytes = %d, want %d", mp.HeapBytes(), 100+ObjectOverheadBytes)
		}
		if err := ptr.free(p, 0); err != nil {
			t.Errorf("Free: %v", err)
		}
		if mp.HeapBytes() != 0 {
			t.Errorf("HeapBytes after free = %d", mp.HeapBytes())
		}
		if _, err := ptr.deref(p, 0); !errors.Is(err, ErrNoObject) {
			t.Errorf("Deref after free: %v, want ErrNoObject", err)
		}
	})
	s.K.Run()
}

func TestPtrStoreOverwrites(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "mem", 0)
	s.K.Spawn("client", func(p *sim.Proc) {
		ptr, _ := NewPtr(p, 0, mp, 1, 50)
		if err := ptr.store(p, 0, 2, 80); err != nil {
			t.Errorf("Store: %v", err)
		}
		v, _ := ptr.deref(p, 0)
		if v != 2 {
			t.Errorf("Deref = %v, want 2", v)
		}
		if mp.HeapBytes() != 80+ObjectOverheadBytes {
			t.Errorf("HeapBytes = %d, want %d (overwrite replaces)", mp.HeapBytes(), 80+ObjectOverheadBytes)
		}
	})
	s.K.Run()
}

func TestPtrRemoteDerefCostsNetwork(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "mem", 1)
	var local, remote time.Duration
	s.K.Spawn("client", func(p *sim.Proc) {
		ptr, _ := NewPtr(p, 0, mp, []byte("img"), 1<<20)
		start := p.Now()
		if _, err := ptr.deref(p, 1); err != nil { // from the same machine
			t.Errorf("local deref: %v", err)
		}
		local = p.Now().Sub(start)
		start = p.Now()
		if _, err := ptr.deref(p, 0); err != nil { // across the wire
			t.Errorf("remote deref: %v", err)
		}
		remote = p.Now().Sub(start)
	})
	s.K.Run()
	if remote <= local {
		t.Errorf("remote deref (%v) should cost more than local (%v)", remote, local)
	}
	// 1 MiB at 12.5 GB/s ~ 84us; remote must be at least the wire time.
	if remote < 80*time.Microsecond {
		t.Errorf("remote deref = %v, want >= ~84us of wire time", remote)
	}
}

func TestPtrDerefFollowsMigration(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "mem", 0)
	s.K.Spawn("client", func(p *sim.Proc) {
		ptr, _ := NewPtr(p, 0, mp, 7, 64)
		if err := s.Runtime.Migrate(p, mp.ID(), 1); err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		v, err := ptr.deref(p, 0)
		if err != nil || v != 7 {
			t.Errorf("Deref after migration = %v, %v", v, err)
		}
	})
	s.K.Run()
	if s.Cluster.Machine(1).MemUsed() == 0 {
		t.Error("object bytes did not move with the proclet")
	}
}

func TestMemScanAndBatchOps(t *testing.T) {
	s := testSystem(t)
	src, _ := NewMemoryProcletOn(s, "src", 0)
	dst, _ := NewMemoryProcletOn(s, "dst", 1)
	s.K.Spawn("client", func(p *sim.Proc) {
		var ids []uint64
		var vals []Value
		var sizes []int64
		for i := 0; i < 10; i++ {
			ids = append(ids, uint64(i+1))
			vals = append(vals, refTo(i*i))
			sizes = append(sizes, 100)
		}
		if err := src.PutBatch(p, 0, &Batch{IDs: ids, Vals: vals, Sizes: sizes}); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		if src.objs.len() != 10 {
			t.Errorf("NumObjects = %d, want 10", src.objs.len())
		}
		gotIDs, gotVals, gotSizes, err := src.Scan(p, 0, 3, 7)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(gotIDs) != 4 || gotIDs[0] != 3 || gotVals[1].Any().(int) != 9 || gotSizes[0] != 100 {
			t.Errorf("Scan = %v %v %v", gotIDs, gotVals, gotSizes)
		}
		// Move the scanned range to dst (a shard split's data plane).
		if err := dst.PutBatch(p, 0, &Batch{IDs: gotIDs, Vals: gotVals, Sizes: gotSizes}); err != nil {
			t.Fatalf("dst PutBatch: %v", err)
		}
		if err := src.DelRange(p, 0, 3, 7); err != nil {
			t.Fatalf("DelRange: %v", err)
		}
		if src.objs.len() != 6 || dst.objs.len() != 4 {
			t.Errorf("after move: src=%d dst=%d, want 6/4", src.objs.len(), dst.objs.len())
		}
		wantSrc := int64(6 * (100 + ObjectOverheadBytes))
		if src.HeapBytes() != wantSrc {
			t.Errorf("src heap = %d, want %d", src.HeapBytes(), wantSrc)
		}
	})
	s.K.Run()
}

func TestMemoryProcletOOMBubblesUp(t *testing.T) {
	s := testSystem(t, cluster.MachineConfig{Cores: 4, MemBytes: 10_000})
	mp, _ := NewMemoryProcletOn(s, "mem", 0)
	s.K.Spawn("client", func(p *sim.Proc) {
		if _, err := NewPtr(p, 0, mp, 1, 50_000); !errors.Is(err, cluster.ErrNoMemory) {
			t.Errorf("err = %v, want ErrNoMemory", err)
		}
	})
	s.K.Run()
}

func TestNewMemoryProcletPlacement(t *testing.T) {
	// Scheduler places memory proclets on the machine with most free RAM.
	s := testSystem(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 20},
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30},
	)
	mp, err := s.NewMemoryProclet("mem", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Location() != 1 {
		t.Errorf("placed on %d, want 1 (most free memory)", mp.Location())
	}
}

func TestMemoryProcletDestroy(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "mem", 0)
	s.K.Spawn("client", func(p *sim.Proc) {
		if _, err := NewPtr(p, 0, mp, 1, 100); err != nil {
			t.Fatal(err)
		}
	})
	s.K.Run()
	if err := mp.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if s.Cluster.Machine(0).MemUsed() != 0 {
		t.Errorf("memory leaked: %d", s.Cluster.Machine(0).MemUsed())
	}
	if _, ok := s.Sched.info[mp.ID()]; ok {
		t.Error("proclet still registered with scheduler")
	}
}

// TestClientInvoke: an external caller on machine 0, not a proclet,
// invokes a memory proclet on machine 1 through the runtime.
func TestClientInvoke(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "mem", 1)
	s.K.Spawn("driver", func(p *sim.Proc) {
		ptr, err := NewPtr(p, 1, mp, 5, 64)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Runtime.Invoke(p, 0, 0, mp.ID(), "mem.get", proclet.Msg{Word: ptr.obj, Bytes: 8})
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if res.Payload != 5 {
			t.Errorf("payload = %v, want 5", res.Payload)
		}
	})
	s.K.Run()
}

// TestGetBatchFillsCallersBatch: GetBatch answers into the batch it is
// handed — found IDs in request order, absent ones skipped — and a
// reused batch holds only the latest answer.
func TestGetBatchFillsCallersBatch(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "store", 1)
	s.K.Spawn("client", func(p *sim.Proc) {
		for id := uint64(1); id <= 8; id++ {
			if err := mp.Put(p, 0, id, int(id*10), 100+int64(id)); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
		var b Batch
		if err := mp.GetBatch(p, 0, []uint64{5, 99, 2, 7}, &b); err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		if len(b.IDs) != 3 || b.IDs[0] != 5 || b.IDs[1] != 2 || b.IDs[2] != 7 ||
			b.Vals[1].Any().(int) != 20 || b.Sizes[2] != 107 {
			t.Errorf("GetBatch = %v %v %v", b.IDs, b.Vals, b.Sizes)
		}
		if err := mp.GetBatch(p, 0, []uint64{3}, &b); err != nil {
			t.Fatalf("second GetBatch: %v", err)
		}
		if len(b.IDs) != 1 || len(b.Vals) != 1 || len(b.Sizes) != 1 || b.Vals[0].Any().(int) != 30 {
			t.Errorf("reused batch = %v %v %v, want only object 3", b.IDs, b.Vals, b.Sizes)
		}
		if err := mp.GetBatch(p, 0, []uint64{404}, &b); err != nil || len(b.IDs) != 0 {
			t.Errorf("GetBatch of an absent ID = %v, %v; want empty, nil", b.IDs, err)
		}
	})
	s.K.Run()
}

// TestBufferedGetBatchAllocatesNothing: a remote batched read into a
// batch the caller keeps — Runtime.Invoke, the fabric round trip, the
// handler filling the caller's slices — allocates nothing once warm.
func TestBufferedGetBatchAllocatesNothing(t *testing.T) {
	s := testSystem(t)
	defer s.K.Close()
	mp, _ := NewMemoryProcletOn(s, "store", 1)
	s.K.Spawn("server", func(p *sim.Proc) {
		ids := make([]uint64, 32)
		for i := range ids {
			ids[i] = uint64(i)
			if err := mp.Put(p, 0, ids[i], i, 128); err != nil {
				panic(err)
			}
		}
		var b Batch
		for {
			if err := mp.GetBatch(p, 0, ids, &b); err != nil || len(b.IDs) != len(ids) {
				panic(fmt.Sprintf("GetBatch: %d of %d objects, %v", len(b.IDs), len(ids), err))
			}
		}
	})
	s.K.RunUntil(5 * sim.Millisecond) // pools warm, slices grown
	if a := testing.AllocsPerRun(1000, func() { s.K.Step() }); a != 0 {
		t.Fatalf("a buffered GetBatch step allocates %v objects, want 0", a)
	}
	if mp.pr.Invocations() < 100 {
		t.Fatalf("only %d invocations ran", mp.pr.Invocations())
	}
}

// heapMatchesTable checks the accounting identity of a memory proclet:
// its heap is what its objects weigh.
func heapMatchesTable(t *testing.T, what string, mp *MemoryProclet) {
	t.Helper()
	var want int64
	for _, e := range mp.objs.all() {
		want += e.bytes + ObjectOverheadBytes
	}
	if got := mp.HeapBytes(); got != want {
		t.Errorf("%s: heap %d, its %d objects weigh %d", what, got, mp.objs.len(), want)
	}
}

// A PutBatch that names an id more than once charges the heap for what
// the table ends up holding — new ids, existing ids and differing sizes
// alike — on an unreplicated store and on both replicas at rf=2. (Summing
// the delta against the table as it was before the batch charged three
// 100-byte writes of one new id 492 bytes, and the backup, which applies
// records one by one, disagreed.)
func TestPutBatchRepeatedIDsChargeTheHeapOnce(t *testing.T) {
	batches := []Batch{
		{IDs: []uint64{1, 1, 1, 2}, Sizes: []int64{100, 100, 100, 50}},           // a new id three times
		{IDs: []uint64{1, 1, 2, 3, 2}, Sizes: []int64{10, 300, 70, 5, 7}},        // existing ids, other sizes
		{IDs: []uint64{4, 3, 4, 1, 3, 4}, Sizes: []int64{9, 90, 900, 0, 33, 64}}, // both at once
	}
	wantObjects := []int{2, 3, 4}
	for _, rf := range []int{1, 2} {
		var s *System
		var mp, backup *MemoryProclet
		if rf == 1 {
			s = testSystem(t)
			mp, _ = NewMemoryProcletOn(s, "store", 1)
		} else {
			var rs *replicaSet
			s, _, _, mp, rs = replicatedStore(t, rf)
			backup = rs.backups[0].mp
		}
		s.K.Spawn("writer", func(p *sim.Proc) {
			for i := range batches {
				b := &batches[i]
				b.Vals = b.Vals[:0]
				for j := range b.IDs {
					b.Vals = append(b.Vals, Int(int64(100*i+j)))
				}
				if err := mp.PutBatch(p, 0, b); err != nil {
					t.Errorf("rf=%d batch %d: %v", rf, i, err)
				}
				if mp.objs.len() != wantObjects[i] {
					t.Errorf("rf=%d batch %d: %d objects, want %d", rf, i, mp.objs.len(), wantObjects[i])
				}
				heapMatchesTable(t, fmt.Sprintf("rf=%d primary after batch %d", rf, i), mp)
				// The last occurrence of an id is the one stored.
				if e, _ := mp.objs.get(b.IDs[len(b.IDs)-1]); e.val != b.Vals[len(b.Vals)-1] {
					t.Errorf("rf=%d batch %d: id %d holds %v, want the batch's last write", rf, i, b.IDs[len(b.IDs)-1], e.val)
				}
			}
		})
		s.K.RunUntil(ms(5))
		if backup != nil {
			sameObjects(t, "backup", backup, mp)
			heapMatchesTable(t, "backup", backup)
		}
	}
}

// A PutBatch the machine refuses leaves the store as it was: the same
// objects with the same values and the same heap, whatever the batch
// overwrote, added or repeated before the charge failed.
func TestRefusedPutBatchLeavesTheStoreUntouched(t *testing.T) {
	s := testSystem(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 20},
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 16},
	)
	mp, _ := NewMemoryProcletOn(s, "store", 1)
	s.K.Spawn("writer", func(p *sim.Proc) {
		first := &Batch{IDs: []uint64{1, 2, 3}, Vals: []Value{Int(10), refTo("two"), Int(30)}, Sizes: []int64{1000, 2000, 3000}}
		if err := mp.PutBatch(p, 0, first); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		before, heap := mp.objs.all(), mp.HeapBytes()
		// Overwrites 2 twice, deletes nothing, adds 7 twice and 8, and asks
		// for more than the machine has.
		big := &Batch{
			IDs:   []uint64{2, 7, 2, 8, 7, 3},
			Vals:  []Value{Int(1), Int(2), refTo("x"), Int(4), refTo(nil), Int(6)},
			Sizes: []int64{10, 20_000, 30, 80_000, 50, 60},
		}
		err := mp.PutBatch(p, 0, big)
		if !errors.Is(err, cluster.ErrNoMemory) {
			t.Fatalf("PutBatch past the machine's memory = %v, want ErrNoMemory", err)
		}
		after := mp.objs.all()
		if len(after) != len(before) || mp.objs.len() != 3 {
			t.Errorf("%d objects after the refused batch, %d before", len(after), len(before))
		}
		for id, want := range before {
			if got, ok := after[id]; !ok || got != want {
				t.Errorf("obj %d = %v (present=%v) after the refused batch, was %v", id, got, ok, want)
			}
		}
		if mp.HeapBytes() != heap {
			t.Errorf("heap %d after the refused batch, was %d", mp.HeapBytes(), heap)
		}
		heapMatchesTable(t, "after the refused batch", mp)
	})
	s.K.Run()
}

// getInt reads object id from machine 0 as a scalar, unboxed; ok is
// false when the object is a reference.
func getInt(p *sim.Proc, mp *MemoryProclet, id uint64) (val int64, ok bool, err error) {
	v, err := mp.fetch(p, 0, methodMemGet, id)
	val, ok = v.Int()
	return val, ok, err
}

// A scalar is stored inline and comes back as one: a mem.get reads it
// without a box, Get boxes it as an int64, and a batched read sees the
// same Value. A reference is not a scalar.
func TestScalarObjectsRoundTrip(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "store", 1)
	s.K.Spawn("client", func(p *sim.Proc) {
		if err := mp.PutInt(p, 0, 5, -1<<40, 64); err != nil {
			t.Fatalf("PutInt: %v", err)
		}
		if err := mp.Put(p, 0, 6, "ref", 64); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if v, ok, err := getInt(p, mp, 5); err != nil || !ok || v != -1<<40 {
			t.Errorf("getInt(5) = %d, %v, %v", v, ok, err)
		}
		if v, err := mp.Get(p, 0, 5); err != nil || v != int64(-1<<40) {
			t.Errorf("Get(5) = %v (%T), %v; want int64", v, v, err)
		}
		if _, ok, err := getInt(p, mp, 6); err != nil || ok {
			t.Errorf("getInt of a reference: ok=%v, %v", ok, err)
		}
		if _, _, err := getInt(p, mp, 404); !errors.Is(err, ErrNoObject) {
			t.Errorf("getInt of an absent id = %v", err)
		}
		var b Batch
		if err := mp.GetBatch(p, 0, []uint64{6, 5}, &b); err != nil || len(b.Vals) != 2 ||
			b.Vals[0] != refTo("ref") || b.Vals[1] != Int(-1<<40) {
			t.Errorf("GetBatch = %v, %v", b.Vals, err)
		}
		if v, err := mp.Take(p, 0, 5); err != nil || v != int64(-1<<40) {
			t.Errorf("Take(5) = %v, %v", v, err)
		}
	})
	s.K.Run()
}

// Remote single operations allocate nothing once the pools are warm: the
// id rides in the message's Word, a scalar never meets an interface, and
// a reference the caller already holds is passed as it is.
func TestRemoteSingleOpsAllocateNothing(t *testing.T) {
	s := testSystem(t)
	defer s.K.Close()
	mp, _ := NewMemoryProcletOn(s, "store", 1)
	var ref any = "held by the caller"
	s.K.Spawn("client", func(p *sim.Proc) {
		for i := int64(0); ; i++ {
			id := uint64(i & 63)
			if err := mp.PutInt(p, 0, id, i<<32, 128); err != nil {
				panic(err)
			}
			if v, ok, err := getInt(p, mp, id); err != nil || !ok || v != i<<32 {
				panic(fmt.Sprintf("getInt = %d, %v, %v", v, ok, err))
			}
			if err := mp.Put(p, 0, id+64, ref, 128); err != nil {
				panic(err)
			}
			if v, err := mp.Get(p, 0, id+64); err != nil || v != ref {
				panic(fmt.Sprintf("Get = %v, %v", v, err))
			}
		}
	})
	s.K.RunUntil(5 * sim.Millisecond) // pools warm, table grown
	if a := testing.AllocsPerRun(2000, func() { s.K.Step() }); a != 0 {
		t.Fatalf("a remote single-op step allocates %v objects, want 0", a)
	}
	if mp.pr.Invocations() < 400 {
		t.Fatalf("only %d invocations ran", mp.pr.Invocations())
	}
}

// A preload allocates its table once: 256 objects into an empty store
// cost one slot array for scalars, and a second, parallel one when the
// values are references — nothing regrows on the way.
func TestPreloadAllocatesItsTableOnce(t *testing.T) {
	s := testSystem(t)
	mp, _ := NewMemoryProcletOn(s, "store", 0)
	for name, val := range map[string]Value{"scalars": Int(1 << 40), "references": refTo("r")} {
		b := &Batch{IDs: make([]uint64, 256), Vals: make([]Value, 256), Sizes: make([]int64, 256)}
		for i := range b.IDs {
			b.IDs[i], b.Vals[i], b.Sizes[i] = uint64(i), val, 512
		}
		allocs := testing.AllocsPerRun(10, func() {
			mp.objs = objTable{}
			if err := mp.pr.GrowHeap(-mp.HeapBytes()); err != nil {
				t.Fatal(err)
			}
			if _, _, err := mp.applyPutBatch(proclet.Msg{Payload: b}); err != nil {
				t.Fatal(err)
			}
		})
		if want := map[string]float64{"scalars": 1, "references": 2}[name]; mp.objs.len() != 256 || allocs != want {
			t.Errorf("%s: preloading %d objects made %v allocations, want %v", name, mp.objs.len(), allocs, want)
		}
	}
}
