package fault

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func testCluster(t *testing.T, machines int) (*sim.Kernel, *cluster.Cluster, *proclet.Runtime) {
	t.Helper()
	k := sim.NewKernel(1)
	c := cluster.New(k, simnet.Config{
		Latency:   10 * time.Microsecond,
		Bandwidth: 1_000_000_000,
	})
	for i := 0; i < machines; i++ {
		c.AddMachine(cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30})
	}
	rt := proclet.NewRuntime(c, proclet.Config{
		MigrationFixedOverhead: 100 * time.Microsecond,
		DirectoryLookup:        5 * time.Microsecond,
		MaxInvokeRetries:       16,
	}, obs.NewLog())
	return k, c, rt
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	ids := []cluster.MachineID{0, 1, 2}
	gen := func(seed int64) Schedule {
		return Churn(rand.New(rand.NewSource(seed)), ids,
			sim.Time(100*time.Millisecond), 10*time.Millisecond, 2*time.Millisecond)
	}
	a, b := gen(7), gen(7)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := gen(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
	// Per machine: ops alternate crash, restart, crash, ... in time order.
	for _, id := range ids {
		want := OpCrash
		for _, ev := range a {
			if ev.A != id {
				continue
			}
			if ev.Op != want {
				t.Fatalf("machine %d: got %v, want %v", id, ev.Op, want)
			}
			if want == OpCrash {
				want = OpRestart
			} else {
				want = OpCrash
			}
		}
	}
}

func TestInjectorAppliesScheduleInOrder(t *testing.T) {
	k, c, _ := testCluster(t, 2)
	in := New(k, c, obs.NewLog())
	in.Install(Schedule{
		// Deliberately out of order; Install sorts by time.
		{At: sim.Time(3 * time.Millisecond), Op: OpHeal, A: 0, B: 1},
		{At: sim.Time(1 * time.Millisecond), Op: OpPartition, A: 0, B: 1},
		{At: sim.Time(2 * time.Millisecond), Op: OpCrash, A: 1},
		{At: sim.Time(4 * time.Millisecond), Op: OpRestart, A: 1},
	})
	check := func(at sim.Time, fn func()) { k.Schedule(at, fn) }
	check(sim.Time(1500*time.Microsecond), func() {
		if !c.Fabric.LinkFaultOn(0, 1).Partitioned {
			t.Error("t=1.5ms: expected partition")
		}
	})
	check(sim.Time(2500*time.Microsecond), func() {
		if !c.Machine(1).Down() || !c.Node(1).Down() {
			t.Error("t=2.5ms: expected machine 1 down")
		}
	})
	check(sim.Time(3500*time.Microsecond), func() {
		if c.Fabric.LinkFaultOn(0, 1).Partitioned {
			t.Error("t=3.5ms: expected link healed")
		}
	})
	k.Run()
	if c.Machine(1).Down() {
		t.Error("machine 1 still down after restart")
	}
	if in.Crashes.Value() != 1 || in.Restarts.Value() != 1 ||
		in.Partitions.Value() != 1 || in.Heals.Value() != 1 {
		t.Errorf("counters = crash %d restart %d partition %d heal %d, want 1 each",
			in.Crashes.Value(), in.Restarts.Value(), in.Partitions.Value(), in.Heals.Value())
	}
}

func TestInjectorIdempotentOps(t *testing.T) {
	k, c, _ := testCluster(t, 2)
	in := New(k, c, obs.NewLog())
	k.Spawn("driver", func(p *sim.Proc) {
		in.Apply(Event{Op: OpCrash, A: 0})
		in.Apply(Event{Op: OpCrash, A: 0}) // already down: no-op
		in.Apply(Event{Op: OpRestart, A: 0})
		in.Apply(Event{Op: OpRestart, A: 0}) // already up: no-op
	})
	k.Run()
	if in.Crashes.Value() != 1 || in.Restarts.Value() != 1 {
		t.Errorf("crashes %d restarts %d, want 1 each", in.Crashes.Value(), in.Restarts.Value())
	}
}

func TestNewSetsDefaultCallTimeout(t *testing.T) {
	k, c, _ := testCluster(t, 1)
	New(k, c, obs.NewLog())
	if d := c.Fabric.Config().CallTimeout; d != 2*time.Millisecond {
		t.Errorf("CallTimeout = %v, want 2ms default", d)
	}
	// An explicit timeout is respected.
	k2 := sim.NewKernel(1)
	c2 := cluster.New(k2, simnet.Config{
		Latency: time.Microsecond, Bandwidth: 1e9, CallTimeout: 5 * time.Millisecond,
	})
	c2.AddMachine(cluster.MachineConfig{Cores: 1, MemBytes: 1 << 20})
	New(k2, c2, obs.NewLog())
	if d := c2.Fabric.Config().CallTimeout; d != 5*time.Millisecond {
		t.Errorf("CallTimeout = %v, want 5ms (explicit)", d)
	}
}

// TestNoHangUnderChurn is the package's core guarantee: with crashes,
// restarts, partitions and degraded links all landing on a live RPC
// workload, every invocation must resolve (reply or error) and the
// kernel must drain — nothing blocks forever.
func TestNoHangUnderChurn(t *testing.T) {
	k, c, rt := testCluster(t, 4)
	tl := obs.NewLog()
	in := New(k, c, tl)

	// A service proclet per machine; crashed machines orphan theirs.
	var prs []*proclet.Proclet
	for m := 0; m < 4; m++ {
		pr, err := rt.Spawn("svc", cluster.MachineID(m), 4096)
		if err != nil {
			t.Fatal(err)
		}
		pr.Handle("work", func(ctx *Ctx, arg Msg) (Msg, error) {
			ctx.Proc.Sleep(20 * time.Microsecond)
			return Msg{}, nil
		})
		prs = append(prs, pr)
	}
	in.HookCrash = func(mid cluster.MachineID) { rt.CrashMachine(mid) }

	horizon := sim.Time(20 * time.Millisecond)
	rng := k.Rand()
	sched := Churn(rng, []cluster.MachineID{1, 2, 3}, horizon,
		5*time.Millisecond, 2*time.Millisecond)
	// Mix in link faults on machine 0's links, always healed before the end.
	sched = append(sched,
		Event{At: sim.Time(2 * time.Millisecond), Op: OpPartition, A: 0, B: 2},
		Event{At: sim.Time(4 * time.Millisecond), Op: OpHeal, A: 0, B: 2},
		Event{At: sim.Time(6 * time.Millisecond), Op: OpDegrade, A: 0, B: 3,
			Extra: 200 * time.Microsecond, Drop: 0.3},
		Event{At: sim.Time(9 * time.Millisecond), Op: OpHeal, A: 0, B: 3},
	)
	// Heal everything at the horizon: all machines back up.
	for _, m := range []cluster.MachineID{1, 2, 3} {
		sched = append(sched, Event{At: horizon, Op: OpRestart, A: m})
	}
	in.Install(sched)

	resolved := 0
	const callers, callsPer = 6, 40
	for i := 0; i < callers; i++ {
		i := i
		k.Spawn("caller", func(p *sim.Proc) {
			for j := 0; j < callsPer; j++ {
				target := prs[(i+j)%4]
				_, err := rt.Invoke(p, 0, 0, target.ID(), "work", Msg{})
				if err != nil && !errors.Is(err, simnet.ErrNodeDown) &&
					!errors.Is(err, simnet.ErrTimeout) && !errors.Is(err, proclet.ErrRetries) {
					t.Errorf("unexpected error class: %v", err)
				}
				resolved++
				p.Sleep(50 * time.Microsecond)
			}
		})
	}
	k.Run()
	if resolved != callers*callsPer {
		t.Errorf("resolved %d/%d invocations", resolved, callers*callsPer)
	}
	if n := k.Blocked(); n != 0 {
		t.Errorf("%d processes still blocked after run", n)
	}
}

type (
	// Local aliases keep the chaos test readable.
	Ctx = proclet.Ctx
	Msg = proclet.Msg
)

func TestGPUFaultOps(t *testing.T) {
	k, c, _ := testCluster(t, 2)
	c.Machine(1).AddGPUs(cluster.GPUConfig{Count: 2, MemBytes: 4 << 30, LinkBandwidth: 1_000_000_000})
	tl := obs.NewLog()
	in := New(k, c, tl)
	var kicks []int
	in.HookGPU = func(m cluster.MachineID, gpu int) {
		if m != 1 {
			t.Errorf("hook machine = %d", m)
		}
		kicks = append(kicks, gpu)
	}
	in.Install(Schedule{
		{At: sim.Time(time.Millisecond), Op: OpGPUThrottle, A: 1, Gpu: 0, Factor: 3},
		{At: sim.Time(2 * time.Millisecond), Op: OpGPUXid, A: 1, Gpu: 1, Xid: 79},
		{At: sim.Time(3 * time.Millisecond), Op: OpGPUReclaim, A: 1, Gpu: 0},
		{At: sim.Time(4 * time.Millisecond), Op: OpGPUHeal, A: 1, Gpu: 1},
		{At: sim.Time(5 * time.Millisecond), Op: OpGPUReturn, A: 1, Gpu: 0},
		// No-ops: unknown GPU index, machine without GPUs.
		{At: sim.Time(6 * time.Millisecond), Op: OpGPUXid, A: 1, Gpu: 9},
		{At: sim.Time(6 * time.Millisecond), Op: OpGPUXid, A: 0, Gpu: 0},
	})
	g0, g1 := c.Machine(1).GPU(0), c.Machine(1).GPU(1)

	k.RunUntil(sim.Time(1500 * time.Microsecond))
	if g0.Throttle() != 3 {
		t.Errorf("throttle = %v", g0.Throttle())
	}
	k.RunUntil(sim.Time(2500 * time.Microsecond))
	if !g1.Failed() || g1.Xid() != 79 {
		t.Errorf("failed=%v xid=%d", g1.Failed(), g1.Xid())
	}
	k.RunUntil(sim.Time(3500 * time.Microsecond))
	if g0.Available() {
		t.Error("g0 still available after reclaim")
	}
	k.Run()
	if g1.Failed() || !g0.Available() {
		t.Errorf("after heal/return: failed=%v avail=%v", g1.Failed(), g0.Available())
	}
	if got := in.GPUXids.Value() + in.GPUThrottles.Value() + in.GPUHeals.Value() +
		in.GPUReclaims.Value() + in.GPUReturns.Value(); got != 5 {
		t.Errorf("applied GPU faults = %d, want 5", got)
	}
	want := []int{0, 1, 0, 1, 0}
	if len(kicks) != len(want) {
		t.Fatalf("hook kicks = %v, want %v", kicks, want)
	}
	for i := range want {
		if kicks[i] != want[i] {
			t.Fatalf("hook kicks = %v, want %v", kicks, want)
		}
	}
}

func TestGPUFaultOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpGPUXid: "gpu_xid", OpGPUThrottle: "gpu_throttle", OpGPUHeal: "gpu_heal",
		OpGPUReclaim: "gpu_reclaim", OpGPUReturn: "gpu_return",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}
