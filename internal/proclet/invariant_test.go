package proclet

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// checkInvariants validates the runtime's structural invariants:
// directory and local tables agree, each machine's resident memory
// equals the heaps placed on it, and no proclet is in two places.
func checkInvariants(t *testing.T, rt *Runtime) {
	t.Helper()
	seen := make(map[ID]cluster.MachineID)
	for i, table := range rt.local {
		mid := cluster.MachineID(i)
		for id, pr := range table {
			if prev, dup := seen[id]; dup {
				t.Fatalf("proclet %d on machines %d and %d", id, prev, mid)
			}
			seen[id] = mid
			if rt.directory[id] != mid {
				t.Fatalf("proclet %d local on %d but directory says %d", id, mid, rt.directory[id])
			}
			if pr.machine != mid {
				t.Fatalf("proclet %d.machine=%d in table of %d", id, pr.machine, mid)
			}
		}
	}
	for id, mid := range rt.directory {
		if _, ok := rt.local[mid][id]; !ok {
			t.Fatalf("directory entry %d->%d has no local proclet", id, mid)
		}
	}
	for _, m := range rt.Cluster.Machines() {
		var sum int64
		for _, pr := range rt.local[m.ID] {
			sum += pr.heapBytes
		}
		if m.MemUsed() != sum {
			t.Fatalf("machine %d resident %d != placed heaps %d", m.ID, m.MemUsed(), sum)
		}
	}
}

// Property: invariants hold after arbitrary sequences of spawns,
// migrations (some to full/absent machines), heap growth, and
// destroys.
func TestRuntimeInvariantsProperty(t *testing.T) {
	f := func(tape []uint16) bool {
		k, _, rt := testEnv(t, 3)
		var ids []ID
		failed := false
		k.Spawn("driver", func(p *sim.Proc) {
			for _, op := range tape {
				switch op % 5 {
				case 0: // spawn
					pr, err := rt.Spawn("p", cluster.MachineID(op%3), int64(op)*100)
					if err == nil {
						ids = append(ids, pr.ID())
					}
				case 1, 2: // migrate
					if len(ids) == 0 {
						continue
					}
					id := ids[int(op)%len(ids)]
					rt.Migrate(p, id, cluster.MachineID((op/3)%3))
				case 3: // grow/shrink heap
					if len(ids) == 0 {
						continue
					}
					if pr := rt.Lookup(ids[int(op)%len(ids)]); pr != nil {
						delta := int64(op%1000) - 300
						if pr.HeapBytes()+delta >= 0 {
							pr.GrowHeap(delta)
						}
					}
				case 4: // destroy
					if len(ids) == 0 {
						continue
					}
					idx := int(op) % len(ids)
					rt.Destroy(ids[idx])
					ids = append(ids[:idx], ids[idx+1:]...)
				}
			}
		})
		k.Run()
		if failed {
			return false
		}
		checkInvariants(t, rt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: concurrent migrations of distinct proclets between two
// machines preserve invariants and complete.
func TestConcurrentMigrationsProperty(t *testing.T) {
	f := func(seed uint8, nRaw uint8) bool {
		n := int(nRaw%10) + 2
		k, _, rt := testEnv(t, 2)
		var prs []*Proclet
		for i := 0; i < n; i++ {
			pr, err := rt.Spawn("p", cluster.MachineID(i%2), int64(i+1)*4096)
			if err != nil {
				return false
			}
			prs = append(prs, pr)
		}
		for i, pr := range prs {
			i, pr := i, pr
			k.Spawn("mover", func(p *sim.Proc) {
				for round := 0; round < 4; round++ {
					p.Sleep(time.Duration((int(seed)+i*7+round*13)%200) * time.Microsecond)
					rt.Migrate(p, pr.ID(), cluster.MachineID((i+round)%2))
				}
			})
		}
		k.Run()
		checkInvariants(t, rt)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInvokeStormDuringMigrations: invocations from many clients while
// the target bounces between machines — all must eventually succeed.
func TestInvokeStormDuringMigrations(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 0, 256<<10)
	served := 0
	pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) {
		served++
		return Msg{}, nil
	})
	const clients = 8
	const calls = 20
	errs := 0
	for c := 0; c < clients; c++ {
		c := c
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				if _, err := rt.Invoke(p, cluster.MachineID(c%2), 0, pr.ID(), "ping", Msg{Bytes: 64}); err != nil {
					errs++
				}
				p.Sleep(time.Duration(50+c*13) * time.Microsecond)
			}
		})
	}
	k.Spawn("mover", func(p *sim.Proc) {
		for round := 0; round < 12; round++ {
			p.Sleep(300 * time.Microsecond)
			rt.Migrate(p, pr.ID(), cluster.MachineID(round%2))
		}
	})
	k.Run()
	if errs != 0 {
		t.Errorf("%d invocations failed during migration storm", errs)
	}
	if served != clients*calls {
		t.Errorf("served = %d, want %d", served, clients*calls)
	}
	checkInvariants(t, rt)
}
