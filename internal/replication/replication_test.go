package replication

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// testCluster builds a kernel + n-machine cluster with the detector's
// handlers not yet installed.
func testCluster(t *testing.T, n int) (*sim.Kernel, *cluster.Cluster, *obs.Log) {
	t.Helper()
	k := sim.NewKernel(1)
	c := cluster.New(k, simnet.DefaultConfig())
	for i := 0; i < n; i++ {
		c.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 1 << 28})
	}
	return k, c, obs.NewLog()
}

func TestDetectorCrashSuspectConfirm(t *testing.T) {
	k, c, tl := testCluster(t, 3)
	in := fault.New(k, c, tl)
	d := NewDetector(k, c, tl, Config{}, 0)

	confirms := 0
	d.OnConfirm = func(mid cluster.MachineID) {
		confirms++
		if mid != 1 {
			t.Errorf("confirmed m%d, want m1", mid)
		}
		if d.LeaseValid(1) {
			t.Error("lease still valid at confirmation (split-brain window)")
		}
	}
	d.Start()
	in.Install(fault.Schedule{{At: sim.Time(2 * time.Millisecond), Op: fault.OpCrash, A: 1}})
	k.RunUntil(sim.Time(20 * time.Millisecond))

	// The detector's log holds m1's two transitions, suspicion first.
	var order []string
	for _, e := range tl.Filter(obs.KindSuspect) {
		if e.Subject != "m1" {
			t.Errorf("%v: a transition of %s, want only m1's", e, e.Subject)
		}
		order = append(order, e.Detail())
	}
	if confirms != 1 || len(order) != 2 || !strings.HasPrefix(order[0], "suspected after") || !strings.HasPrefix(order[1], "confirmed dead after") {
		t.Fatalf("%d confirm hooks, transitions %q; want one hook, suspected then confirmed dead", confirms, order)
	}
	if got := d.health[1].state; got != StateDead {
		t.Errorf("state of m1 = %v, want dead", got)
	}
	if got := d.health[2].state; got != StateAlive {
		t.Errorf("state of m2 = %v, want alive", got)
	}
	if d.Confirms.Value() != 1 || d.Suspects.Value() != 1 {
		t.Errorf("Suspects=%d Confirms=%d, want 1/1", d.Suspects.Value(), d.Confirms.Value())
	}
	// Blind window: last beat to confirmation should span at least
	// ConfirmMisses heartbeat periods.
	min := float64(time.Duration(d.cfg.ConfirmMisses)*d.cfg.HeartbeatPeriod) * 0.5
	if got := d.DetectLatency.Mean(); got < min {
		t.Errorf("detect latency %.0fns implausibly small (< %.0fns)", got, min)
	}
}

func TestDetectorFalseSuspicionHealsHarmlessly(t *testing.T) {
	k, c, tl := testCluster(t, 2)
	in := fault.New(k, c, tl)
	cfg := defaultConfig()
	d := NewDetector(k, c, tl, cfg, 0)
	confirmed := false
	d.OnConfirm = func(cluster.MachineID) { confirmed = true }
	d.Start()

	// Drop all monitor->m1 traffic for ~3 heartbeat periods: long enough
	// to suspect, too short to confirm.
	in.Install(fault.Schedule{
		{At: sim.Time(2 * time.Millisecond), Op: fault.OpDegrade, A: 0, B: 1, Drop: 1.0},
		{At: sim.Time(2*time.Millisecond + 3*cfg.HeartbeatPeriod), Op: fault.OpHeal, A: 0, B: 1},
	})
	k.RunUntil(sim.Time(20 * time.Millisecond))

	if confirmed {
		t.Fatal("short degradation must not confirm the machine dead")
	}
	if d.FalseSuspects.Value() != 1 {
		t.Errorf("FalseSuspects = %d, want 1", d.FalseSuspects.Value())
	}
	if got := d.health[1].state; got != StateAlive {
		t.Errorf("state of m1 = %v, want alive after heal", got)
	}
	if !d.LeaseValid(1) {
		t.Error("lease should be renewed after heal")
	}
}

func TestDetectorPartitionLapsesLeaseBeforeConfirm(t *testing.T) {
	k, c, tl := testCluster(t, 2)
	in := fault.New(k, c, tl)
	d := NewDetector(k, c, tl, Config{}, 0)
	var confirmAt, lapsedBy sim.Time
	d.OnConfirm = func(mid cluster.MachineID) {
		confirmAt = k.Now()
		lapsedBy = d.LeaseExpiry(mid)
	}
	d.Start()
	in.Install(fault.Schedule{{At: sim.Time(time.Millisecond), Op: fault.OpPartition, A: 0, B: 1}})
	k.RunUntil(sim.Time(20 * time.Millisecond))

	if confirmAt == 0 {
		t.Fatal("partition from the monitor should eventually confirm")
	}
	if lapsedBy >= confirmAt {
		t.Errorf("lease expiry %v not strictly before confirmation %v", lapsedBy, confirmAt)
	}
}

// TestPingRenewsOnlyThePingedLease: one heartbeat handler serves every
// machine, told the machine the ping landed on, so a ping renews that
// machine's lease and leaves every other as it was.
func TestPingRenewsOnlyThePingedLease(t *testing.T) {
	k, c, tl := testCluster(t, 4)
	defer k.Close()
	d := NewDetector(k, c, tl, Config{}, 0)
	granted := d.LeaseExpiry(0)
	k.Spawn("pinger", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if _, err := c.Fabric.Call(p, 0, 2, methodPing, simnet.Message{Bytes: pingBytes}); err != nil {
			t.Fatalf("ping: %v", err)
		}
	})
	k.Run()
	for mid := cluster.MachineID(0); mid < 4; mid++ {
		switch got := d.LeaseExpiry(mid); {
		case mid == 2 && got <= granted+sim.Time(time.Millisecond):
			t.Errorf("m2 lease expires at %v, want a lease renewed after 1ms", got)
		case mid != 2 && got != granted:
			t.Errorf("m%d lease expires at %v, want %v as granted", mid, got, granted)
		}
	}
}

// TestZeroConfigHasNoHeartbeatJitter pins what every caller in the tree
// runs with: Config{} keeps HeartbeatJitter 0 although defaultConfig
// advertises 0.2, so the per-machine ping loops stay synchronized.
// Defaulting it moves events; it is ROADMAP item 2's defect (iv), for
// the PR that is allowed to — that PR updates this test.
func TestZeroConfigHasNoHeartbeatJitter(t *testing.T) {
	if j := (Config{}).withDefaults().HeartbeatJitter; j != 0 {
		t.Errorf("Config{}.withDefaults().HeartbeatJitter = %v, want 0", j)
	}
	if j := defaultConfig().HeartbeatJitter; j != 0.2 {
		t.Errorf("defaultConfig().HeartbeatJitter = %v, want 0.2", j)
	}
}

func TestConfigRejectsUnsafeLease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for LeaseDuration >= ConfirmMisses*HeartbeatPeriod")
		}
	}()
	cfg := Config{
		HeartbeatPeriod: time.Millisecond,
		SuspectMisses:   1,
		ConfirmMisses:   2,
		LeaseDuration:   5 * time.Millisecond,
	}
	cfg.withDefaults()
}

// TestDetectorSwitchesOnlyAtStart: each machine's heartbeat loop is a
// staged process, so monitoring N machines for K periods switches no
// process in at all: the loops' starts, pings, their settling and the
// periods between run in kernel context. With a machine crashed the
// confirmation lands at the instant the blocking ping loop confirmed it,
// 3.505024 ms for a crash at 1 ms, after as many heartbeats (312); that
// loop switched 594 times.
func TestDetectorSwitchesOnlyAtStart(t *testing.T) {
	const n, periods = 8, 40
	for _, crash := range []bool{false, true} {
		k, c, tl := testCluster(t, n)
		d := NewDetector(k, c, tl, Config{}, 0)
		var confirmAt sim.Time
		d.OnConfirm = func(cluster.MachineID) { confirmAt = k.Now() }
		d.Start()
		if crash {
			fault.New(k, c, tl).Install(fault.Schedule{{At: sim.Time(time.Millisecond), Op: fault.OpCrash, A: 3}})
		}
		k.RunUntil(sim.Time(periods * d.cfg.HeartbeatPeriod))
		if got := k.Switches(); got != 0 {
			t.Errorf("crash %v: %d machines monitored for %d periods switched %d times, want 0", crash, n, periods, got)
		}
		if sent := d.HeartbeatsSent.Value(); sent < n*(periods-1) {
			t.Errorf("crash %v: %d heartbeats sent, want at least %d", crash, sent, n*(periods-1))
		}
		if want := sim.Time(3505024); crash && (confirmAt != want || d.HeartbeatsSent.Value() != 312) {
			t.Errorf("m3 confirmed dead at %v after %d heartbeats, want %v after 312", confirmAt, d.HeartbeatsSent.Value(), want)
		}
		k.Close()
	}
}

// TestDetectorStartAllocs: a monitored machine costs a detector a few
// allocations — its pinger's name and stage method values and its staged
// Proc — and no worker, coroutine or closure: NewDetector, Start and the
// first instant at 250 machines cost at most 500 allocations more than at
// 125, where a pinger spawned as a worker process cost 17 a machine.
func TestDetectorStartAllocs(t *testing.T) {
	const runs = 5
	cost := func(n int) float64 {
		// AllocsPerRun calls f once more than runs; each call takes a
		// cluster built outside it.
		ks := make([]*sim.Kernel, runs+1)
		cs := make([]*cluster.Cluster, runs+1)
		for i := range ks {
			ks[i], cs[i], _ = testCluster(t, n)
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			k, c := ks[next], cs[next]
			next++
			NewDetector(k, c, nil, Config{}, 0).Start()
			k.RunUntil(k.Now())
		})
		for _, k := range ks {
			k.Close()
		}
		return allocs
	}
	small, large := cost(125), cost(250)
	if large-small > 500 {
		t.Errorf("a detector over 250 machines costs %.0f allocations, over 125 %.0f: %.1f a machine, want at most 4",
			large, small, (large-small)/125)
	}
}

// TestJitteredPeriodsLeaveTheLanesToPollers: with HeartbeatJitter > 0
// every ping period is a fresh delay, and none of them may take one of the
// kernel's delay lanes, or the first few would take them all and a poller
// started later would fall back to the heap: every wait of the poller but
// its first rides a lane, and nothing falls back.
func TestJitteredPeriodsLeaveTheLanesToPollers(t *testing.T) {
	run := func(poller bool) (sim.QueueStats, int) {
		k, c, tl := testCluster(t, 16)
		defer k.Close()
		NewDetector(k, c, tl, Config{HeartbeatJitter: 0.2}, 0).Start()
		polls := 0
		poll := func() sim.Wait { polls++; return sim.After(30 * time.Microsecond) }
		if poller {
			k.Schedule(sim.Time(5*time.Millisecond), func() {
				k.SpawnLazy(func() string { return "poller" }, func(p *sim.Proc) { p.Await(poll(), poll) })
			})
		}
		k.RunUntil(sim.Time(10 * time.Millisecond))
		return k.QueueStats(), polls
	}
	alone, _ := run(false)
	st, polls := run(true)
	if st.LaneAppends-alone.LaneAppends != uint64(polls-1) || st.LaneFallbacks != 0 {
		t.Errorf("the poller's %d polls added %d lane appends, with %d fallbacks: want %d and 0",
			polls, st.LaneAppends-alone.LaneAppends, st.LaneFallbacks, polls-1)
	}
}
