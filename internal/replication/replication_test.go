package replication

import (
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

	var order []string
	d.OnSuspect = func(mid cluster.MachineID) {
		order = append(order, "suspect")
		if mid != 1 {
			t.Errorf("suspected m%d, want m1", mid)
		}
	}
	d.OnConfirm = func(mid cluster.MachineID) {
		order = append(order, "confirm")
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

	if len(order) != 2 || order[0] != "suspect" || order[1] != "confirm" {
		t.Fatalf("hook order = %v, want [suspect confirm]", order)
	}
	if got := d.State(1); got != StateDead {
		t.Errorf("State(1) = %v, want dead", got)
	}
	if got := d.State(2); got != StateAlive {
		t.Errorf("State(2) = %v, want alive", got)
	}
	if d.Confirms.Value() != 1 || d.Suspects.Value() != 1 {
		t.Errorf("Suspects=%d Confirms=%d, want 1/1", d.Suspects.Value(), d.Confirms.Value())
	}
	if d.DetectLatency.Count() != 1 {
		t.Errorf("DetectLatency samples = %d, want 1", d.DetectLatency.Count())
	}
	// Blind window: last beat to confirmation should span at least
	// ConfirmMisses heartbeat periods.
	min := (time.Duration(d.Config().ConfirmMisses) * d.Config().HeartbeatPeriod).Seconds() * 0.5
	if got := d.DetectLatency.Mean(); got < min {
		t.Errorf("detect latency %.6fs implausibly small (< %.6fs)", got, min)
	}
}

func TestDetectorFalseSuspicionHealsHarmlessly(t *testing.T) {
	k, c, tl := testCluster(t, 2)
	in := fault.New(k, c, tl)
	cfg := DefaultConfig()
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
	if got := d.State(1); got != StateAlive {
		t.Errorf("State(1) = %v, want alive after heal", got)
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

// TestZeroConfigHasNoHeartbeatJitter pins what every caller in the tree
// runs with: Config{} keeps HeartbeatJitter 0 although DefaultConfig
// advertises 0.2, so the per-machine ping loops stay synchronized.
// Defaulting it moves events; it is ROADMAP item 1's defect (iv), for
// the PR that is allowed to — that PR updates this test.
func TestZeroConfigHasNoHeartbeatJitter(t *testing.T) {
	if j := (Config{}).withDefaults().HeartbeatJitter; j != 0 {
		t.Errorf("Config{}.withDefaults().HeartbeatJitter = %v, want 0", j)
	}
	if j := DefaultConfig().HeartbeatJitter; j != 0.2 {
		t.Errorf("DefaultConfig().HeartbeatJitter = %v, want 0.2", j)
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
