package proclet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// checkInvariants validates the runtime's structural invariants: every
// listed proclet sits at its own id, Lookup and Proclets agree with the
// table, and each machine's used memory equals the heaps resident on it.
func checkInvariants(t *testing.T, rt *Runtime) {
	t.Helper()
	if err := invariants(rt); err != nil {
		t.Fatal(err)
	}
}

func invariants(rt *Runtime) error {
	resident := make(map[cluster.MachineID]int64)
	var live []*Proclet
	for i, pr := range rt.procs {
		if pr == nil {
			continue
		}
		if pr.id != ID(i) {
			return fmt.Errorf("procs[%d] holds proclet %d", i, pr.id)
		}
		if got := rt.Lookup(pr.id); (got != nil) != pr.resident || (got != nil && got != pr) {
			return fmt.Errorf("Lookup(%d) found=%v with resident=%v", pr.id, got != nil, pr.resident)
		}
		if pr.resident {
			resident[pr.machine] += pr.heapBytes
			live = append(live, pr)
		}
	}
	if got := rt.Proclets(); !slices.Equal(got, live) {
		return fmt.Errorf("Proclets() returns %d proclets, want the %d resident ones by ascending id", len(got), len(live))
	}
	for _, m := range rt.Cluster.Machines() {
		if m.MemUsed() != resident[m.ID] {
			return fmt.Errorf("machine %d resident %d != placed heaps %d", m.ID, m.MemUsed(), resident[m.ID])
		}
	}
	return nil
}

// refModel is the routing state as the maps the runtime used to keep: the
// directory, one resident set per machine and one location cache per
// machine. The runtime now holds all three in id-indexed slices; this
// model carries the old meaning so a random tape can compare the two.
type refModel struct {
	directory map[ID]cluster.MachineID
	local     []map[ID]bool
	caches    []map[ID]cluster.MachineID
	lookups   int64 // directory lookups charged so far
}

func newRefModel(machines int) *refModel {
	md := &refModel{directory: make(map[ID]cluster.MachineID)}
	for i := 0; i < machines; i++ {
		md.local = append(md.local, make(map[ID]bool))
		md.caches = append(md.caches, make(map[ID]cluster.MachineID))
	}
	return md
}

func (md *refModel) lookup(id ID) bool {
	m, ok := md.directory[id]
	return ok && md.local[m][id]
}

// place is Spawn and the table half of Restore.
func (md *refModel) place(id ID, m cluster.MachineID) {
	md.directory[id] = m
	md.local[m][id] = true
}

// detach is Depose and what CrashMachine does to each resident.
func (md *refModel) detach(id ID) { delete(md.local[md.directory[id]], id) }

// forget is Destroy and Abandon.
func (md *refModel) forget(id ID) {
	md.detach(id)
	delete(md.directory, id)
}

// move is the commit of Migrate and MigrateLazy.
func (md *refModel) move(id ID, to cluster.MachineID) {
	from := md.directory[id]
	md.detach(id)
	md.place(id, to)
	md.caches[from][id], md.caches[to][id] = to, to
}

// invoke routes one invocation the way Runtime.invoke does and returns
// the error it must end with (nil, ErrNotFound or ErrRetries).
func (md *refModel) invoke(from cluster.MachineID, id ID, attempts int, down func(cluster.MachineID) bool) error {
	for a := 0; a < attempts; a++ {
		loc, ok := md.caches[from][id]
		if !ok {
			md.lookups++
			if loc, ok = md.directory[id]; !ok {
				return ErrNotFound
			}
			md.caches[from][id] = loc
		}
		unreachable := loc != from && (down(from) || down(loc)) // ErrNodeDown, retried
		if unreachable || !md.local[loc][id] {                  // or a stale entry: ErrMoved, chased
			delete(md.caches[from], id)
			continue
		}
		return nil
	}
	return ErrRetries
}

// Property: through arbitrary sequences of spawn, migrate (pre- and
// post-copy), heap growth, destroy, machine crash and restart, Restore,
// Depose, Abandon and invocations from machines whose caches have gone
// stale, the id-indexed tables behave as the reference model's maps do.
// After every operation Lookup, Proclets, residency on every machine,
// every location cache, the directory-lookup count and the outcome of the
// operation must match, and machine memory must equal the resident heaps.
// One step crashes a machine mid-migration: a second process fails the
// source or the destination at an instant drawn inside the fixed pause
// both protocols' blackouts start with, and the move must end as the
// model says — ErrCrashed with the proclet orphaned, or ErrNodeDown with
// it back on the source.
//
// Hand mutations this fails on (each tried): Depose not clearing
// resident; Abandon or Destroy leaving procs[id]; invoke not dropping the
// cache entry after ErrMoved, or after a local miss; localOn ignoring
// pr.machine; CrashMachine skipping the resident check; Restore not
// setting resident; cache storing loc instead of loc+1; landed without
// its source-crash case, or without its destination-down check (the
// latter is how MigrateLazy used to commit). The memory check also found
// MigrateLazy keeping the source's allocEpoch, so that a later Destroy or
// Depose on a machine with another crash count leaked the heap.
func TestRuntimeInvariantsProperty(t *testing.T) {
	const machines = 4
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k, c, rt := testEnv(t, machines)
		md := newRefModel(machines)
		var all []*Proclet // every proclet ever spawned, dead ones included
		down := func(m cluster.MachineID) bool { return c.Machine(m).Down() }
		step := 0
		var op string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
		}
		compare := func() {
			t.Helper()
			var want []ID
			for _, pr := range all {
				id := pr.ID()
				if got := rt.Lookup(id); (got != nil) != md.lookup(id) {
					fail("Lookup(%d) found=%v, model says resident=%v", id, got != nil, md.lookup(id))
				} else if got != nil && got.Location() != md.directory[id] {
					fail("proclet %d on machine %d, model says %d", id, got.Location(), md.directory[id])
				}
				if md.lookup(id) {
					want = append(want, id)
				}
				for m := cluster.MachineID(0); m < machines; m++ {
					if got := rt.localOn(m, id) != nil; got != md.local[m][id] {
						fail("proclet %d resident on machine %d: %v, model says %v", id, m, got, md.local[m][id])
					}
					var cached cluster.MachineID = -1
					if cc := rt.caches[m]; int(id) < len(cc) {
						cached = cluster.MachineID(cc[id] - 1)
					}
					if loc, ok := md.caches[m][id]; (ok && cached != loc) || (!ok && cached != -1) {
						fail("machine %d caches proclet %d at %d, model says %d (present=%v)", m, id, cached, loc, ok)
					}
				}
			}
			var got []ID
			for _, pr := range rt.Proclets() {
				got = append(got, pr.ID())
			}
			if !slices.Equal(got, want) {
				fail("Proclets() = %v, model says %v", got, want)
			}
			if got := rt.DirectoryLookups.Value(); got != md.lookups {
				fail("DirectoryLookups = %d, model says %d", got, md.lookups)
			}
			if err := invariants(rt); err != nil {
				fail("%v", err)
			}
		}
		k.Spawn("driver", func(p *sim.Proc) {
			for step = 0; step < 250; step++ {
				m := cluster.MachineID(rng.Intn(machines))
				var pr *Proclet
				if len(all) > 0 {
					pr = all[rng.Intn(len(all))]
				}
				kind := rng.Intn(13)
				if pr == nil {
					kind = 0
				}
				switch kind {
				case 0:
					op = fmt.Sprintf("spawn on %d", m)
					np, err := rt.Spawn("p", m, int64(rng.Intn(1<<16)))
					if (err == nil) == down(m) {
						fail("err = %v with machine down=%v", err, down(m))
					}
					if err == nil {
						if np.ID()%2 == 0 {
							np.Handle("ping", func(*Ctx, Msg) (Msg, error) { return Msg{}, nil })
						} else {
							np.HandleFast("ping", func(Msg) (Msg, error) { return Msg{}, nil })
						}
						all = append(all, np)
						md.place(np.ID(), m)
					}
				case 1, 2:
					lazy := kind == 2
					op = fmt.Sprintf("migrate %d to %d lazy=%v", pr.ID(), m, lazy)
					from, was := pr.Location(), md.lookup(pr.ID())
					var err error
					if lazy {
						err = rt.MigrateLazy(p, pr.ID(), m)
					} else {
						err = rt.Migrate(p, pr.ID(), m)
					}
					if !was && !errors.Is(err, ErrNotFound) {
						fail("err = %v on a proclet the model does not list as resident", err)
					}
					if err == nil && m != from {
						md.move(pr.ID(), m)
					}
					if lazy && err == nil {
						// Serve once inside the window from a third machine,
						// then let the background copy land: until it does the
						// heap is charged at both ends.
						if _, err := rt.Invoke(p, (m+1)%machines, 0, pr.ID(), "ping", Msg{}); !errors.Is(err, md.invoke((m+1)%machines, pr.ID(), 16, down)) {
							fail("invoke in the lazy window: %v", err)
						}
						for pr.lazyWindow {
							p.Sleep(100 * time.Microsecond)
						}
					}
				case 3:
					op = fmt.Sprintf("grow %d", pr.ID())
					delta := int64(rng.Intn(1000)) - 300
					if pr.HeapBytes()+delta < 0 {
						delta = 0
					}
					var want error
					if _, listed := md.directory[pr.ID()]; !listed {
						want = ErrDead
					} else if !md.lookup(pr.ID()) {
						want = ErrCrashed
					}
					if err := pr.GrowHeap(delta); !errors.Is(err, want) {
						fail("err = %v, want %v", err, want)
					}
				case 4:
					op = fmt.Sprintf("destroy %d", pr.ID())
					err := rt.Destroy(pr.ID())
					if (err == nil) != md.lookup(pr.ID()) {
						fail("err = %v, model says resident=%v", err, md.lookup(pr.ID()))
					}
					if err == nil {
						md.forget(pr.ID())
					}
				case 5:
					op = fmt.Sprintf("crash %d", m)
					if down(m) {
						continue
					}
					var want []ID
					for _, q := range all {
						if md.local[m][q.ID()] {
							want = append(want, q.ID())
							md.detach(q.ID())
						}
					}
					var got []ID
					for _, q := range crash(c, rt, m) {
						got = append(got, q.ID())
					}
					if !slices.Equal(got, want) {
						fail("orphans = %v, model says %v", got, want)
					}
				case 6:
					op = fmt.Sprintf("restart %d", m)
					c.Node(m).SetDown(false)
					c.Machine(m).Restart()
				case 7:
					op = fmt.Sprintf("restore %d to %d", pr.ID(), m)
					_, listed := md.directory[pr.ID()]
					orphan := listed && !md.lookup(pr.ID())
					err := rt.Restore(p, pr, m)
					if err == nil && !orphan {
						fail("restored a proclet the model does not hold orphaned")
					}
					if orphan && !down(m) && err != nil {
						fail("err = %v restoring an orphan onto a live machine", err)
					}
					if err == nil {
						md.place(pr.ID(), m)
						md.caches[m][pr.ID()] = m
					}
				case 8:
					op = fmt.Sprintf("depose %d", pr.ID())
					err := rt.Depose(pr)
					if (err == nil) != md.lookup(pr.ID()) {
						fail("err = %v, model says resident=%v", err, md.lookup(pr.ID()))
					}
					if err == nil {
						md.detach(pr.ID())
					}
				case 9:
					op = fmt.Sprintf("abandon %d", pr.ID())
					if _, listed := md.directory[pr.ID()]; listed && !md.lookup(pr.ID()) {
						md.forget(pr.ID())
					}
					rt.Abandon(pr)
				case 10:
					lazy, from := rng.Intn(2) == 1, pr.Location()
					victim := from
					if rng.Intn(2) == 1 {
						victim = m
					}
					at := time.Duration(rng.Int63n(int64(migrationFixedOverhead)))
					op = fmt.Sprintf("migrate %d to %d lazy=%v, crash %d after %v", pr.ID(), m, lazy, victim, at)
					if !md.lookup(pr.ID()) || m == from || down(m) {
						continue
					}
					want := error(ErrCrashed)
					if victim == m {
						want = simnet.ErrNodeDown
					}
					var wantOrphans, gotOrphans []ID
					for _, q := range all {
						if md.local[victim][q.ID()] {
							wantOrphans = append(wantOrphans, q.ID())
							md.detach(q.ID())
						}
					}
					k.Spawn("crash", func(cp *sim.Proc) {
						cp.Sleep(at)
						for _, q := range crash(c, rt, victim) {
							gotOrphans = append(gotOrphans, q.ID())
						}
					})
					var err error
					if lazy {
						err = rt.MigrateLazy(p, pr.ID(), m)
					} else {
						err = rt.Migrate(p, pr.ID(), m)
					}
					if !errors.Is(err, want) {
						fail("err = %v, want %v", err, want)
					}
					if !slices.Equal(gotOrphans, wantOrphans) {
						fail("orphans = %v, model says %v", gotOrphans, wantOrphans)
					}
				default:
					op = fmt.Sprintf("invoke %d from %d", pr.ID(), m)
					want := md.invoke(m, pr.ID(), 16, down)
					if _, err := rt.Invoke(p, m, 0, pr.ID(), "ping", Msg{}); !errors.Is(err, want) {
						fail("err = %v, model says %v", err, want)
					}
				}
				compare()
			}
		})
		k.Run()
		if step != 250 {
			t.Fatalf("seed %d: driver stopped at step %d (%s)", seed, step, op)
		}
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
