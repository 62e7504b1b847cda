package gpu

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// heteroSys builds a 2-machine fleet with mixed device classes:
// machine 0 carries two fast 8 GiB devices, machine 1 two slow 4 GiB
// ones. 16 GB/s host links throughout.
func heteroSys(t *testing.T, seed int64) *core.System {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	s := core.NewSystem(cfg, []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	s.Cluster.Machine(0).AddGPUs(cluster.GPUConfig{
		Count: 2, MemBytes: 8 << 30, LinkBandwidth: 16_000_000_000, Class: "fast", Speed: 2})
	s.Cluster.Machine(1).AddGPUs(cluster.GPUConfig{
		Count: 2, MemBytes: 4 << 30, LinkBandwidth: 16_000_000_000, Class: "slow", Speed: 1})
	return s
}

// drive runs a training loop until the proclet has acked `target`
// steps or the horizon passes, retrying across device losses.
func drive(s *core.System, gp *Proclet, batch int64, target int64) {
	s.K.Spawn("driver/"+gp.Name(), func(p *sim.Proc) {
		for gp.CompletedSteps() < target {
			if err := gp.Step(p, gp.Device().Machine.ID, batch); err != nil {
				if gp.AwaitPlaced(p) != nil {
					return
				}
			}
		}
	})
}

func TestPickGPUCapacityAware(t *testing.T) {
	s := heteroSys(t, 1)
	f := NewFleet(s, "fleet", Config{})
	big0, big1 := s.Cluster.Machine(0).GPU(0), s.Cluster.Machine(0).GPU(1)

	// Occupy the big devices so their free memory drops below the
	// small ones: a capacity-blind max-free pick would still choose a
	// big device and strand the proclet at placement time.
	if err := big0.AllocMem(7 << 30); err != nil {
		t.Fatal(err)
	}
	if err := big1.AllocMem(7 << 30); err != nil {
		t.Fatal(err)
	}
	g, err := f.PickGPU(2<<30, nil)
	if err != nil {
		t.Fatalf("PickGPU: %v", err)
	}
	if g.Class() != "slow" {
		t.Errorf("picked %s (class %s), want a small device with room", g, g.Class())
	}

	// Nothing has 5 GiB free: a clean ErrNoSpare, not a doomed pick.
	if _, err := f.PickGPU(5<<30, nil); !errors.Is(err, ErrNoSpare) {
		t.Errorf("err = %v, want ErrNoSpare", err)
	}

	// Unhealthy devices are never candidates, even with the most room.
	big0.FreeMem(7 << 30)
	big0.Fail(79)
	g, err = f.PickGPU(2<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g == big0 {
		t.Error("picked a fatally failed device")
	}
	// Exclude works alongside the capacity filter.
	if g2, _ := f.PickGPU(2<<30, g); g2 == g {
		t.Error("exclude ignored")
	}
}

func TestFleetStopImmediate(t *testing.T) {
	s := heteroSys(t, 1)
	f := NewFleet(s, "fleet", Config{})
	gp, err := f.Add("trainer-0", 1<<30, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	src := gp.Device()
	// Stop mid-period, then reclaim. The old watcher woke once more at
	// the next tick and evacuated; a deterministic Stop must not react
	// after the call returns.
	s.K.Schedule(sim.Time(2500*time.Microsecond), func() { f.Stop() })
	s.K.Schedule(sim.Time(2600*time.Microsecond), func() { src.SetAvailable(false) })
	s.K.RunUntil(sim.Time(50 * time.Millisecond))
	if f.Evacuations.Value() != 0 {
		t.Errorf("Evacuations = %d after Stop, want 0", f.Evacuations.Value())
	}
	if gp.Device() != src {
		t.Error("proclet moved after Stop")
	}
	// Kick after Stop must stay a no-op.
	f.Kick()
	s.K.RunUntil(sim.Time(60 * time.Millisecond))
	if f.Evacuations.Value() != 0 {
		t.Error("Kick revived a stopped fleet")
	}
}

func TestFleetConcurrentReclaimDeterministic(t *testing.T) {
	// Three trainers, each on its own 3 GiB device on machine 0; the
	// single 2 GiB device on machine 1 is the only spare with room for
	// a 1.8 GiB model (the third big device keeps only 1.2 GiB free).
	// Reclaiming two devices in the same watcher pass makes both
	// proclets contend for that one spare: victims are visited in Add
	// order, so trainer-0 wins it and trainer-1 strands, regardless of
	// the order the reclaims were declared in. Identical outcomes
	// across seeds.
	cases := []struct {
		name            string
		reclaim         []int // trainer indices whose device is reclaimed
		wantEvacuations int64
		wantStranded    bool
		wantWinner      int // trainer index that lands on the spare (-1 none)
	}{
		{"single", []int{0}, 1, false, 0},
		{"two-for-one-spare", []int{0, 1}, 1, true, 0},
		{"reverse-order-same-winner", []int{1, 0}, 1, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				evacs, stranded int64
				devices         string
			}
			var first outcome
			for i, seed := range []int64{1, 2, 3, 4, 5} {
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				s := core.NewSystem(cfg, []cluster.MachineConfig{
					{Cores: 8, MemBytes: 8 << 30},
					{Cores: 8, MemBytes: 8 << 30},
				})
				s.Cluster.Machine(0).AddGPUs(cluster.GPUConfig{
					Count: 3, MemBytes: 3 << 30, LinkBandwidth: 16_000_000_000})
				s.Cluster.Machine(1).AddGPUs(cluster.GPUConfig{
					Count: 1, MemBytes: 2 << 30, LinkBandwidth: 16_000_000_000})
				f := NewFleet(s, "fleet", Config{})
				var procs []*Proclet
				for j := 0; j < 3; j++ {
					gp, err := f.Add(fmt.Sprintf("trainer-%d", j), 1800<<20, time.Millisecond)
					if err != nil {
						t.Fatal(err)
					}
					procs = append(procs, gp)
				}
				f.Start()
				s.K.Schedule(sim.Millisecond/2, func() {
					for _, idx := range tc.reclaim {
						procs[idx].Device().SetAvailable(false)
					}
				})
				s.K.RunUntil(sim.Time(800 * time.Millisecond))
				f.Stop()
				var devs string
				for _, gp := range procs {
					devs += gp.Device().String() + " "
				}
				got := outcome{f.Evacuations.Value(), f.Stranded.Value(), devs}
				if got.evacs != tc.wantEvacuations {
					t.Errorf("seed %d: Evacuations = %d, want %d", seed, got.evacs, tc.wantEvacuations)
				}
				if (got.stranded > 0) != tc.wantStranded {
					t.Errorf("seed %d: Stranded = %d, want stranded=%v", seed, got.stranded, tc.wantStranded)
				}
				if tc.wantWinner >= 0 {
					if w := procs[tc.wantWinner].Device(); !w.Available() || w.Machine.ID != 1 {
						t.Errorf("seed %d: winner on %s, want the machine-1 spare", seed, w)
					}
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Errorf("seed %d: outcome %+v differs from seed 1's %+v", seed, got, first)
				}
			}
		})
	}
}

func TestCheckpointedRestoreAfterXid(t *testing.T) {
	s := heteroSys(t, 1)
	f := NewFleet(s, "fleet", Config{
		Checkpoint: CheckpointConfig{DeltaBytes: 8 << 20, SnapshotEvery: 16},
	})
	gp, err := f.Add("trainer-0", 1<<30, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if gp.ckptHome == gp.Device().Machine.ID {
		t.Errorf("checkpoint home m%d not anti-affine to device %s", gp.ckptHome, gp.Device())
	}
	f.Start()
	src := gp.Device()
	drive(s, gp, 1<<20, 1<<60)
	var ackedAtFail int64
	s.K.Schedule(sim.Time(20*time.Millisecond), func() {
		ackedAtFail = gp.CompletedSteps()
		src.Fail(79)
		f.Kick()
	})
	s.K.RunUntil(sim.Time(300 * time.Millisecond))
	f.Stop()
	if gp.Device() == src {
		t.Fatal("proclet still on the failed device")
	}
	if f.Restores.Value() != 1 {
		t.Errorf("Restores = %d, want 1", f.Restores.Value())
	}
	if f.LostSteps() != 0 {
		t.Errorf("LostSteps = %d, want 0 (checkpointed)", f.LostSteps())
	}
	if ackedAtFail < 2 {
		t.Fatalf("only %d steps acked before the failure — test not exercising the window", ackedAtFail)
	}
	if got := gp.CompletedSteps(); got < ackedAtFail {
		t.Errorf("CompletedSteps = %d < %d acked at failure: acked work was lost", got, ackedAtFail)
	}
	if gp.Checkpoints.Value() < ackedAtFail {
		t.Errorf("Checkpoints = %d < acked %d: ack preceded mirror ship", gp.Checkpoints.Value(), ackedAtFail)
	}
}

func TestUncheckpointedXidLosesAckedWork(t *testing.T) {
	s := heteroSys(t, 1)
	f := NewFleet(s, "fleet", Config{})
	gp, err := f.Add("trainer-0", 1<<30, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	src := gp.Device()
	drive(s, gp, 1<<20, 1<<60)
	var ackedAtFail int64
	s.K.Schedule(sim.Time(20*time.Millisecond), func() {
		ackedAtFail = gp.CompletedSteps()
		src.Fail(48)
		f.Kick()
	})
	s.K.RunUntil(sim.Time(300 * time.Millisecond))
	f.Stop()
	if ackedAtFail == 0 {
		t.Fatal("no steps acked before failure")
	}
	if got := gp.LostSteps.Value(); got != ackedAtFail {
		t.Errorf("LostSteps = %d, want %d (all acked work gone without a mirror)", got, ackedAtFail)
	}
	if gp.Device() == src || f.Restores.Value() != 1 {
		t.Errorf("re-placement missing: dev=%s restores=%d", gp.Device(), f.Restores.Value())
	}
}

func TestXidMidStepLosesAtMostInFlight(t *testing.T) {
	s := heteroSys(t, 1)
	f := NewFleet(s, "fleet", Config{
		Checkpoint: CheckpointConfig{DeltaBytes: 8 << 20},
	})
	// 10ms kernels so the XID lands mid-kernel.
	gp, err := f.Add("trainer-0", 1<<30, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	src := gp.Device()
	drive(s, gp, 1<<20, 1<<60)
	s.K.Schedule(sim.Time(12*time.Millisecond), func() { // mid 2nd step
		src.Fail(79)
		f.Kick()
	})
	s.K.RunUntil(sim.Time(400 * time.Millisecond))
	f.Stop()
	if f.LostSteps() != 0 {
		t.Errorf("LostSteps = %d, want 0: the in-flight step was never acked", f.LostSteps())
	}
	if gp.CompletedSteps() < 5 {
		t.Errorf("training stalled after mid-step XID: %d steps", gp.CompletedSteps())
	}
}

func TestStragglerMitigationWithHysteresis(t *testing.T) {
	// Three trainers on slow devices, so the fleet median stays
	// anchored at the slow-class latency after one trainer escapes to
	// a fast spare — the healthy peers must not chase it.
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	s := core.NewSystem(cfg, []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	s.Cluster.Machine(0).AddGPUs(cluster.GPUConfig{
		Count: 2, MemBytes: 8 << 30, LinkBandwidth: 16_000_000_000, Class: "fast", Speed: 2})
	s.Cluster.Machine(1).AddGPUs(cluster.GPUConfig{
		Count: 3, MemBytes: 4 << 30, LinkBandwidth: 16_000_000_000, Class: "slow", Speed: 1})
	f := NewFleet(s, "fleet", Config{StragglerFactor: 1.5})
	var procs []*Proclet
	for j := 0; j < 3; j++ {
		g := s.Cluster.Machine(1).GPU(j)
		gp, err := newCheckpointed(s, fmt.Sprintf("trainer-%d", j), g, 256<<20, time.Millisecond, CheckpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f.procs = append(f.procs, &entry{gp: gp})
		procs = append(procs, gp)
		drive(s, gp, 1<<20, 1<<60)
	}
	f.Start()
	victim := procs[0].Device()
	// A sustained thermal throttle makes trainer-0 a 4x straggler.
	s.K.Schedule(sim.Time(10*time.Millisecond), func() { victim.SetThrottle(4) })
	s.K.RunUntil(sim.Time(200 * time.Millisecond))
	f.Stop()
	if f.Mitigations.Value() != 1 {
		t.Fatalf("Mitigations = %d, want exactly 1", f.Mitigations.Value())
	}
	if procs[0].Device() == victim {
		t.Error("straggler still on the throttled device")
	}
	if procs[0].Device().Class() != "fast" {
		t.Errorf("re-dispatched to %s (%s), want a strictly faster device",
			procs[0].Device(), procs[0].Device().Class())
	}
	if procs[1].Device().Class() != "slow" || procs[2].Device().Class() != "slow" {
		t.Error("healthy peers were moved — detector thrashing")
	}
}

func TestStragglerNoPileOnSharedSpare(t *testing.T) {
	// One slow trainer, one fast trainer, and no free fast device: the
	// only "faster" candidate is the device the fast trainer already
	// occupies. Time-slicing two proclets on it would hand the mover the
	// same per-proclet rate it already has, so the detector must leave
	// the slow trainer in place rather than churn a model copy.
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	s := core.NewSystem(cfg, []cluster.MachineConfig{
		{Cores: 8, MemBytes: 8 << 30},
		{Cores: 8, MemBytes: 8 << 30},
	})
	s.Cluster.Machine(0).AddGPUs(cluster.GPUConfig{
		Count: 1, MemBytes: 8 << 30, LinkBandwidth: 16_000_000_000, Class: "fast", Speed: 2})
	s.Cluster.Machine(1).AddGPUs(cluster.GPUConfig{
		Count: 1, MemBytes: 8 << 30, LinkBandwidth: 16_000_000_000, Class: "slow", Speed: 1})
	f := NewFleet(s, "fleet", Config{StragglerFactor: 1.5})
	slowDev := s.Cluster.Machine(1).GPU(0)
	fastDev := s.Cluster.Machine(0).GPU(0)
	slow, err := New(s, "slow-trainer", slowDev, 1<<30, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := New(s, "fast-trainer", fastDev, 1<<30, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f.procs = append(f.procs, &entry{gp: slow}, &entry{gp: fast})
	drive(s, slow, 1<<20, 1<<60)
	drive(s, fast, 1<<20, 1<<60)
	f.Start()
	s.K.RunUntil(sim.Time(100 * time.Millisecond))
	f.Stop()
	if f.Mitigations.Value() != 0 {
		t.Errorf("Mitigations = %d, want 0: the only faster device is occupied", f.Mitigations.Value())
	}
	if slow.Device() != slowDev {
		t.Errorf("slow trainer moved to %s: piled onto the occupied fast device", slow.Device())
	}
}

func TestStragglerFlapDoesNotThrash(t *testing.T) {
	s := heteroSys(t, 1)
	f := NewFleet(s, "fleet", Config{StragglerFactor: 1.5})
	var procs []*Proclet
	for j := 0; j < 2; j++ {
		g := s.Cluster.Machine(1).GPU(j)
		gp, err := New(s, fmt.Sprintf("trainer-%d", j), g, 1<<30, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		f.procs = append(f.procs, &entry{gp: gp})
		procs = append(procs, gp)
		drive(s, gp, 1<<20, 1<<60)
	}
	f.Start()
	victim := procs[0].Device()
	// A throttle flap shorter than the hysteresis window: on at 10ms,
	// healed at 13ms — under hysteresis consecutive strikes at the 1ms
	// watcher period.
	s.K.Schedule(sim.Time(10*time.Millisecond), func() { victim.SetThrottle(4) })
	s.K.Schedule(sim.Time(13*time.Millisecond), func() { victim.Heal() })
	s.K.RunUntil(sim.Time(150 * time.Millisecond))
	f.Stop()
	if f.Mitigations.Value() != 0 {
		t.Errorf("Mitigations = %d, want 0: flap shorter than hysteresis", f.Mitigations.Value())
	}
	if procs[0].Device() != victim {
		t.Error("proclet moved on a transient flap")
	}
}

func TestFaultHookKickBoundsReaction(t *testing.T) {
	// The XID lands at 5.5ms, between two 1ms watcher ticks: without
	// Kick the reaction waits for the tick at 6ms, with it the restore
	// starts at the fault instant and ends half a tick sooner.
	restoredAt := func(kick bool) sim.Time {
		s := heteroSys(t, 1)
		f := NewFleet(s, "fleet", Config{
			Checkpoint: CheckpointConfig{DeltaBytes: 4 << 20},
		})
		gp, err := f.Add("trainer-0", 64<<20, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		inj := fault.New(s.K, s.Cluster, s.Trace)
		if kick {
			inj.HookGPU = func(cluster.MachineID, int) { f.Kick() }
		}
		src := gp.Device()
		inj.Install(fault.Schedule{{
			At: sim.Time(5500 * time.Microsecond), Op: fault.OpGPUXid,
			A: src.Machine.ID, Gpu: src.Index, Xid: 79,
		}})
		var at sim.Time
		s.K.Spawn("probe", func(p *sim.Proc) {
			for gp.Device() == src && p.Now() < sim.Time(200*time.Millisecond) {
				p.Sleep(100 * time.Microsecond)
			}
			at = p.Now()
		})
		s.K.RunUntil(sim.Time(200 * time.Millisecond))
		f.Stop()
		if gp.Device() == src {
			t.Fatalf("kick %v: never restored", kick)
		}
		if inj.GPUXids.Value() != 1 {
			t.Errorf("kick %v: GPUXids = %d", kick, inj.GPUXids.Value())
		}
		return at
	}
	kicked, ticked := restoredAt(true), restoredAt(false)
	if kicked >= ticked {
		t.Errorf("restored at %v with Kick, %v without: reaction quantized to the period, Kick not honored", kicked, ticked)
	}
}
