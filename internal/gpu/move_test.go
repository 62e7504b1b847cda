package gpu

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestFailedMoveLeavesProcletInPlace: a move whose copy or whose
// control-proclet move fails rolls all the way back. The proclet trains
// on m0's device with its mirror on m1 (or none) and moves to m2's. The
// copy fails when m2 is partitioned from the model's source — the device
// on a migrate, the mirror on a restore. The control-proclet move fails
// when m2 crashes while the model is on the wire, or, with nothing to
// copy, before the move starts. In every row the proclet stays on its
// device, the destination's device memory is what it was, no move is in
// progress and the step count and lost steps are untouched.
func TestFailedMoveLeavesProcletInPlace(t *testing.T) {
	const model = 256 << 20
	for _, tc := range []struct {
		name    string
		restore bool // restoreTo a failed device, else migrateTo
		mirror  bool // checkpoints ship to m1
		crashAt time.Duration
		want    error // ErrTimeout: the copy failed; ErrNodeDown: the control-proclet move did
	}{
		{"migrate/copy", false, true, -1, simnet.ErrTimeout},
		// 256 MiB down the host link takes 16.8 ms, then 21.5 ms on the wire.
		{"migrate/control", false, true, 25 * time.Millisecond, simnet.ErrNodeDown},
		{"restore/copy", true, true, -1, simnet.ErrTimeout},
		// The mirror's copy is on the wire from the start, for 21.5 ms.
		{"restore/control", true, true, 10 * time.Millisecond, simnet.ErrNodeDown},
		{"restore-without-mirror/control", true, false, 0, simnet.ErrNodeDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
				{Cores: 8, MemBytes: 8 << 30}, {Cores: 8, MemBytes: 8 << 30}, {Cores: 8, MemBytes: 8 << 30},
			})
			for _, m := range s.Cluster.Machines() {
				m.AddGPUs(cluster.GPUConfig{Count: 1, MemBytes: 8 << 30, LinkBandwidth: 16_000_000_000})
			}
			src, dst := s.Cluster.Machine(0).GPU(0), s.Cluster.Machine(2).GPU(0)
			var ck CheckpointConfig
			if tc.mirror {
				ck = CheckpointConfig{DeltaBytes: 1 << 20}
			}
			gp, err := newCheckpointed(s, "trainer", src, model, time.Millisecond, ck)
			if err != nil {
				t.Fatal(err)
			}
			in := fault.New(s.K, s.Cluster, s.Trace)
			var acked, lost int64
			dstFree := dst.MemFree()
			s.K.Spawn("ctl", func(p *sim.Proc) {
				for i := 0; i < 5; i++ {
					if err := gp.Step(p, 0, 1<<20); err != nil {
						t.Errorf("step %d: %v", i, err)
						return
					}
				}
				acked, lost = gp.acked, gp.LostSteps.Value()
				if tc.crashAt < 0 {
					for _, a := range []cluster.MachineID{0, 1} {
						in.Apply(fault.Event{Op: fault.OpPartition, A: a, B: 2})
					}
				} else {
					s.K.Schedule(p.Now()+sim.Time(tc.crashAt), func() { in.Apply(fault.Event{Op: fault.OpCrash, A: 2}) })
				}
				move := gp.migrateTo
				if tc.restore {
					src.Fail(79)
					move = gp.restoreTo
				}
				if err := move(p, dst); !errors.Is(err, tc.want) {
					t.Errorf("move: %v, want %v", err, tc.want)
				}
			})
			s.K.RunUntil(sim.Time(time.Second))
			if acked == 0 {
				t.Fatal("no step was acked before the move")
			}
			if gp.Device() != src {
				t.Errorf("proclet on %s, want its own device %s", gp.Device(), src)
			}
			if loc := s.Runtime.Lookup(gp.pr.ID()).Location(); loc != 0 {
				t.Errorf("control proclet on m%d, want m0", loc)
			}
			if got := dst.MemFree(); got != dstFree {
				t.Errorf("destination device has %d bytes free, want %d", got, dstFree)
			}
			if gp.migrating {
				t.Error("still migrating")
			}
			if gp.acked != acked || gp.LostSteps.Value() != lost {
				t.Errorf("acked %d, lost %d; want %d and %d, as before the move", gp.acked, gp.LostSteps.Value(), acked, lost)
			}
		})
	}
}
