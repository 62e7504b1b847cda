package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
)

func TestPlaceComputePrefersLeastLoaded(t *testing.T) {
	s := testSystem(t)
	// Load machine 0 with a busy compute proclet.
	cp, _ := NewComputeProcletOn(s, "busy", 0, 4)
	for i := 0; i < 8; i++ {
		cp.Run(func(tc *TaskCtx) { tc.Compute(time.Second) })
	}
	s.K.RunUntil(sim.Millisecond) // let workers start
	m, err := s.Sched.placeCompute()
	if err != nil {
		t.Fatal(err)
	}
	if m != 1 {
		t.Errorf("PlaceCompute = %d, want 1", m)
	}
}

func TestPlaceComputeSkipsReservedMachines(t *testing.T) {
	s := testSystem(t)
	s.Cluster.Machine(0).SetReserved(8)
	m, err := s.Sched.placeCompute()
	if err != nil || m != 1 {
		t.Errorf("PlaceCompute = %d, %v, want 1", m, err)
	}
	s.Cluster.Machine(1).SetReserved(8)
	if _, err := s.Sched.placeCompute(); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

func TestPlaceComputeIdleRequiresSpareCores(t *testing.T) {
	s := testSystem(t, cluster.MachineConfig{Cores: 1, MemBytes: 1 << 30})
	cp, _ := NewComputeProcletOn(s, "busy", 0, 1)
	cp.Run(func(tc *TaskCtx) { tc.Compute(time.Second) })
	s.K.RunUntil(sim.Millisecond)
	if _, err := s.Sched.placeComputeIdle(); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity (core already claimed)", err)
	}
}

func TestPlaceMemoryRequiresRoom(t *testing.T) {
	s := testSystem(t,
		cluster.MachineConfig{Cores: 1, MemBytes: 1000},
		cluster.MachineConfig{Cores: 1, MemBytes: 2000},
	)
	m, err := s.Sched.PlaceMemory(1500)
	if err != nil || m != 1 {
		t.Errorf("PlaceMemory = %d, %v, want 1", m, err)
	}
	if _, err := s.Sched.PlaceMemory(5000); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("err = %v, want ErrNoCapacity", err)
	}
}

// TestReactorEvacuatesOnReservation is a miniature of Figure 1: when a
// high-priority app grabs every core on machine 0, the fast reactor
// must move the filler's compute proclets to machine 1 within a few
// milliseconds.
func TestReactorEvacuatesOnReservation(t *testing.T) {
	s := testSystem(t)
	s.Start()
	pl, _ := s.NewPool("filler", 1, 4, 1, 0)
	// Keep workers permanently busy with short tasks.
	var feed func(cp *ComputeProclet)
	feed = func(cp *ComputeProclet) {
		cp.Run(func(tc *TaskCtx) {
			tc.Compute(100 * time.Microsecond)
			feed(tc.ComputeProclet())
		})
	}
	for _, m := range pl.Members() {
		feed(m)
		feed(m)
	}
	// Let everything settle on machine 0/1 (placement spreads 2/2).
	s.K.RunUntil(5 * sim.Millisecond)
	// Reserve all of machine 0 at t=5ms.
	s.Cluster.Machine(0).SetReserved(8)
	s.K.RunUntil(15 * sim.Millisecond)
	for _, cp := range pl.Members() {
		if cp.Location() != 1 {
			t.Errorf("member %s still on machine %d", cp.Proclet().Name(), cp.Location())
		}
	}
	if s.Sched.Evacuations.Value() == 0 {
		t.Error("no evacuations recorded")
	}
	// And they must have moved quickly: all migrations done within a
	// couple of reactor periods + sub-ms migrations.
	migs := s.Runtime.MigrationLatency
	if migs.Max() > 0.001 {
		t.Errorf("max migration latency = %vs, want < 1ms", migs.Max())
	}
}

func TestReactorLeavesBalancedClusterAlone(t *testing.T) {
	s := testSystem(t)
	s.Start()
	pl, _ := s.NewPool("calm", 1, 2, 1, 0)
	for i := 0; i < 2; i++ {
		pl.Run(func(tc *TaskCtx) { tc.Compute(50 * time.Millisecond) })
	}
	s.K.RunUntil(60 * sim.Millisecond)
	if s.Sched.Evacuations.Value() != 0 {
		t.Errorf("Evacuations = %d on a balanced cluster", s.Sched.Evacuations.Value())
	}
}

func TestReactMemEvacuatesUnderPressure(t *testing.T) {
	s := testSystem(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 10 << 20},
		cluster.MachineConfig{Cores: 4, MemBytes: 100 << 20},
	)
	s.Start()
	mp, _ := NewMemoryProcletOn(s, "shard", 0)
	s.K.Spawn("filler", func(p *sim.Proc) {
		// Fill machine 0 past the high-water mark (92% of 10 MiB).
		var ids []uint64
		var vals []Value
		var sizes []int64
		for i := 0; i < 95; i++ {
			ids = append(ids, uint64(i+1))
			vals = append(vals, Int(int64(i)))
			sizes = append(sizes, 100<<10)
		}
		if err := mp.PutBatch(p, 0, &Batch{IDs: ids, Vals: vals, Sizes: sizes}); err != nil {
			t.Errorf("PutBatch: %v", err)
		}
	})
	s.K.RunUntil(20 * sim.Millisecond)
	if mp.Location() != 1 {
		t.Errorf("memory proclet still on machine %d, want evacuated to 1", mp.Location())
	}
	if s.Sched.MemEvictions.Value() == 0 {
		t.Error("no memory evictions recorded")
	}
}

func TestFreeUpMemory(t *testing.T) {
	s := testSystem(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 10 << 20},
		cluster.MachineConfig{Cores: 4, MemBytes: 100 << 20},
	)
	mp, _ := NewMemoryProcletOn(s, "shard", 0)
	s.K.Spawn("driver", func(p *sim.Proc) {
		ids, vals, sizes := []uint64{1}, []Value{Int(0)}, []int64{8 << 20}
		if err := mp.PutBatch(p, 0, &Batch{IDs: ids, Vals: vals, Sizes: sizes}); err != nil {
			t.Fatalf("PutBatch: %v", err)
		}
		// Machine 0 now holds ~8 MiB of 10 MiB; ask for 5 MiB free.
		if !s.Sched.FreeUpMemory(p, 0, 5<<20) {
			t.Error("FreeUpMemory failed")
		}
		if s.Cluster.Machine(0).MemFree() < 5<<20 {
			t.Errorf("machine 0 free = %d, want >= 5MiB", s.Cluster.Machine(0).MemFree())
		}
	})
	s.K.Run()
}

func TestGlobalRebalanceSmoothsLoad(t *testing.T) {
	// Machine 0 overloaded but below the fast-path panic threshold
	// cannot happen with demand>avail*1.25; instead pin demand between
	// 1.0 and 1.25 of available cores so only the global loop acts.
	s := testSystem(t,
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30},
		cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30},
	)
	s.Start()
	// 4 single-worker proclets, all forced onto machine 0: demand 4.8
	// would trip the fast path; use demand 4 (load 1.0 exactly is not
	// above high water 1.25 * 4 = 5, nor above avail). Load gap vs
	// machine 1 (0) is 1.0 > 0.5 but hiLoad <= 1 blocks rebalance; so
	// use 5 proclets => load 1.25, still under the fast path's 1.25
	// threshold test (demand 5 <= 4*1.25 = 5), but rebalance moves one.
	var keep func(cp *ComputeProclet)
	keep = func(cp *ComputeProclet) {
		cp.Run(func(tc *TaskCtx) {
			tc.Compute(500 * time.Microsecond)
			keep(tc.ComputeProclet())
		})
	}
	for i := 0; i < 5; i++ {
		cp, err := NewComputeProcletOn(s, "w", 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		keep(cp)
	}
	s.K.RunUntil(sim.Time(200 * time.Millisecond))
	if s.Sched.Rebalances.Value() == 0 {
		t.Error("global rebalancer never acted")
	}
	onM1 := 0
	for _, pi := range s.Sched.info {
		if pi.kind == KindCompute && pi.pr.Location() == 1 {
			onM1++
		}
	}
	if onM1 == 0 {
		t.Error("no compute proclet moved to machine 1")
	}
}

func TestAffinityColocation(t *testing.T) {
	s := testSystem(t)
	s.Start()
	// A compute proclet on machine 0 hammers a memory proclet on
	// machine 1 with large transfers; the global loop should colocate.
	mp, _ := NewMemoryProcletOn(s, "data", 1)
	s.Sched.Pin(mp.ID())
	cp, _ := NewComputeProcletOn(s, "reader", 0, 1)
	var ptr Ptr[int]
	s.K.Spawn("setup", func(p *sim.Proc) {
		var err error
		ptr, err = NewPtr(p, 1, mp, 42, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		// Proclet-to-proclet calls so affinity is attributed.
		var got CallFn
		get := func(*TaskCtx) { cp.RunCall(mp.ID(), "mem.get", proclet.Msg{Word: ptr.obj, Bytes: 8}, got) }
		got = func(_ *TaskCtx, _ proclet.Msg, err error) {
			if err != nil {
				t.Errorf("call: %v", err)
				return
			}
			cp.RunCompute(100*time.Microsecond, get)
		}
		get(nil)
	})
	s.K.RunUntil(sim.Time(globalPeriod*4 + 10*time.Millisecond))
	if cp.Location() != 1 {
		t.Errorf("reader on machine %d, want colocated on 1", cp.Location())
	}
	if s.Sched.AffinityMoves.Value() == 0 {
		t.Error("no affinity moves recorded")
	}
}

// TestAffinityTieGoesToLowerPeer: a memory proclet on machine 0 receives
// the same bytes from two pinned compute proclets, the lower-ID one on
// machine 2. The affinity pass must move it to machine 2 in every fresh
// system; picking the peer in map order gets this right with probability
// 2⁻³² over 32 systems.
func TestAffinityTieGoesToLowerPeer(t *testing.T) {
	m := cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30}
	for i := 0; i < 32; i++ {
		s := testSystem(t, m, m, m)
		mp, _ := NewMemoryProcletOn(s, "data", 0)
		mp.pr.Handle("sink", func(*proclet.Ctx, proclet.Msg) (proclet.Msg, error) {
			return proclet.Msg{}, nil
		})
		low, _ := NewComputeProcletOn(s, "low", 2, 1)
		high, _ := NewComputeProcletOn(s, "high", 1, 1)
		for _, cp := range []*ComputeProclet{low, high} {
			s.Sched.Pin(cp.ID())
		}
		s.K.Spawn("driver", func(p *sim.Proc) {
			for _, cp := range []*ComputeProclet{low, high} {
				arg := proclet.Msg{Bytes: affinityBytes}
				if _, err := s.Runtime.Invoke(p, cp.Location(), cp.ID(), mp.ID(), "sink", arg); err != nil {
					t.Errorf("invoke: %v", err)
				}
			}
			s.Sched.colocate(p)
		})
		s.K.Run()
		if mp.Location() != low.Location() {
			t.Fatalf("system %d: proclet on machine %d, want %d (peer %d, not %d)",
				i, mp.Location(), low.Location(), low.ID(), high.ID())
		}
	}
}

func TestAdaptiveLoopRuns(t *testing.T) {
	s := testSystem(t)
	count := 0
	s.Sched.RegisterAdaptive(adaptiveFunc(func(p *sim.Proc) { count++ }))
	s.Start()
	s.K.RunUntil(sim.Time(20 * time.Millisecond))
	// adaptPeriod is 2ms: expect ~10 invocations.
	if count < 8 || count > 12 {
		t.Errorf("adaptive ran %d times in 20ms, want ~10", count)
	}
}

type adaptiveFunc func(p *sim.Proc)

func (f adaptiveFunc) Adapt(p *sim.Proc) { f(p) }

func TestPinPreventsMigration(t *testing.T) {
	s := testSystem(t)
	s.Start()
	cp, _ := NewComputeProcletOn(s, "pinned", 0, 1)
	s.Sched.Pin(cp.ID())
	var keep func()
	keep = func() {
		cp.Run(func(tc *TaskCtx) {
			tc.Compute(100 * time.Microsecond)
			keep()
		})
	}
	keep()
	s.K.RunUntil(2 * sim.Millisecond)
	s.Cluster.Machine(0).SetReserved(8)
	s.K.RunUntil(20 * sim.Millisecond)
	if cp.Location() != 0 {
		t.Errorf("pinned proclet moved to %d", cp.Location())
	}
}

// TestReactorWakesOnFirstTickOfPressure: a reactor idles inside
// sim.Proc.Await, and must behave exactly as the Sleep loop did — it
// reacts on the first LocalPeriod tick after demand crosses
// cpuHighWater, and once the episode ends its next check is one
// LocalPeriod later (its ticks shift to the end of the episode; they do
// not stay on the original grid).
func TestReactorWakesOnFirstTickOfPressure(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	s.Start()
	period := sim.Time(s.cfg.LocalPeriod)
	cp, err := NewComputeProcletOn(s, "busy", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	var feed func(cp *ComputeProclet)
	feed = func(cp *ComputeProclet) {
		cp.Run(func(tc *TaskCtx) {
			tc.Compute(100 * time.Microsecond)
			feed(tc.ComputeProclet())
		})
	}
	for i := 0; i < 4; i++ {
		feed(cp)
	}
	pressuresOn := func(m int) []obs.Event {
		var out []obs.Event
		for _, e := range s.Trace.Filter(obs.KindPressure) {
			if e.From == m {
				out = append(out, e)
			}
		}
		return out
	}

	// First episode: pressure starts a quarter period after tick 25.
	s.K.Schedule(25*period+period/4, func() { s.Cluster.Machine(0).SetReserved(8) })
	s.K.RunUntil(50 * period)
	first := pressuresOn(0)
	if len(first) != 1 || first[0].At != 26*period {
		t.Fatalf("pressure events on m0 = %v, want exactly one at tick 26 (%v)", first, 26*period)
	}
	if cp.Location() != 1 || s.Sched.Evacuations.Value() != 1 {
		t.Fatalf("busy on m%d after %d evacuations, want m1 after 1", cp.Location(), s.Sched.Evacuations.Value())
	}
	migs := s.Trace.Filter(obs.KindMigrate)
	episodeEnd := migs[len(migs)-1].At // the reactor waited for its evacuation
	if (episodeEnd-26*period)%period == 0 {
		t.Fatalf("episode ended on the tick grid (%v): the test cannot tell the two schedules apart", episodeEnd)
	}

	// Second episode on the same machine: move the proclet back, then
	// reserve the cores again at an arbitrary instant.
	s.Cluster.Machine(0).SetReserved(0)
	s.K.Spawn("move-back", func(p *sim.Proc) {
		if err := s.Runtime.Migrate(p, cp.Proclet().ID(), 0); err != nil {
			t.Errorf("move back: %v", err)
		}
	})
	s.K.RunUntil(60 * period)
	again := 60*period + period/3
	s.K.Schedule(again, func() { s.Cluster.Machine(0).SetReserved(8) })
	s.K.RunUntil(80 * period)
	both := pressuresOn(0)
	if len(both) != 2 {
		t.Fatalf("pressure events on m0 = %v, want two", both)
	}
	at := both[1].At
	if at < again || at-again >= period || (at-episodeEnd)%period != 0 {
		t.Fatalf("second reaction at %v: want the first tick after %v on the grid episodeEnd(%v) + n*%v",
			at, again, episodeEnd, time.Duration(period))
	}
}

// TestCalmFleetCreatesNoReactorWorkers: a reactor is a kernel-side poll
// until its machine first needs it, so a thousand calm machines — and an
// adaptation loop nobody registered a policy with — are a thousand and
// one live processes and not one worker; the first machine under pressure
// pays for its own reactor alone.
func TestCalmFleetCreatesNoReactorWorkers(t *testing.T) {
	machines := make([]cluster.MachineConfig, 1000)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30}
	}
	cfg := DefaultConfig()
	cfg.DisableSlowPath = true // sched/global is an ordinary process
	s := NewSystem(cfg, machines)
	defer s.Close()
	s.Start()
	period := sim.Time(cfg.LocalPeriod)
	s.K.RunUntil(100 * period)
	if s.K.WorkersCreated() != 0 {
		t.Fatalf("calm fleet created %d workers, want 0", s.K.WorkersCreated())
	}
	if s.K.Live() != 1001 || s.K.Blocked() != 1001 {
		t.Fatalf("Live=%d Blocked=%d, want 1001 1001", s.K.Live(), s.K.Blocked())
	}
	// Past memHighWater: reactor 7 wakes and finds nothing to move.
	if err := s.Cluster.Machine(7).AllocMem(1 << 30); err != nil {
		t.Fatal(err)
	}
	s.K.RunUntil(102 * period)
	if s.K.WorkersCreated() != 1 {
		t.Fatalf("one machine under pressure created %d workers, want 1", s.K.WorkersCreated())
	}
}

// TestComputeIndexTracksRegistry: the ID-ordered compute index that
// demandOn, workersOn and movableOn walk must follow register and
// unregister, whatever the order.
func TestComputeIndexTracksRegistry(t *testing.T) {
	s := testSystem(t)
	defer s.Close()
	var cps []*ComputeProclet
	for i := 0; i < 5; i++ {
		cp, err := NewComputeProcletOn(s, "c", cluster.MachineID(i%2), 2)
		if err != nil {
			t.Fatal(err)
		}
		cps = append(cps, cp)
		if _, err := NewMemoryProcletOn(s, "m", 0); err != nil {
			t.Fatal(err)
		}
	}
	check := func(want int) {
		t.Helper()
		if len(s.Sched.compute) != want {
			t.Fatalf("compute index has %d entries, want %d", len(s.Sched.compute), want)
		}
		for i, pi := range s.Sched.compute {
			if pi.kind != KindCompute || s.Sched.info[pi.pr.ID()] != pi {
				t.Fatalf("index entry %d (%s) is not the registry's compute entry", i, pi.pr.Name())
			}
			if i > 0 && s.Sched.compute[i-1].pr.ID() >= pi.pr.ID() {
				t.Fatalf("index out of ID order at %d", i)
			}
		}
	}
	check(5)
	if got := s.Sched.workersOn(0); got != 6 {
		t.Errorf("workersOn(0) = %v, want 6", got)
	}
	// Out-of-order churn through the exported entry points.
	mid := cps[2].Proclet()
	s.Sched.UnregisterProclet(mid.ID())
	s.Sched.UnregisterProclet(mid.ID()) // unknown ID: no-op
	check(4)
	s.Sched.RegisterProclet(mid, KindCompute)
	s.Sched.RegisterProclet(mid, KindCompute) // re-registration replaces
	check(5)
	s.Sched.RegisterProclet(mid, KindOther) // kind change leaves the index
	check(4)
}
