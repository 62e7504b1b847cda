package proclet

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// TestIdleMigrationBlackoutIsClosedForm: an idle proclet's pre-copy
// blackout is exactly migrationFixedOverhead, plus migrationPerMiB for
// each MiB of heap, plus the transfer — one propagation latency and the
// heap's wire time — in integer nanoseconds, for heaps from 4 KiB to the
// largest a machine holds (PAPER.md §2's cost model; fig1's
// sub-millisecond claim as arithmetic). The 3,330,014,086-byte heap is
// one whose wire time a truncated float64 quotient puts 1 ns short.
func TestIdleMigrationBlackoutIsClosedForm(t *testing.T) {
	const machineMem = 64 << 30
	netCfg := simnet.DefaultConfig()
	heaps := []int64{4 << 10, 4<<10 + 1, 100_003, 1 << 20, 3<<20 + 12_345, 64 << 20, 1 << 30, 3_330_014_086, 7_777_777_777, 32 << 30, machineMem}
	for _, heap := range heaps {
		k := sim.NewKernel(1)
		c := cluster.New(k, netCfg)
		c.AddMachine(cluster.MachineConfig{Cores: 8, MemBytes: machineMem})
		c.AddMachine(cluster.MachineConfig{Cores: 8, MemBytes: machineMem})
		rt := NewRuntime(c, obs.NewLog())
		pr, err := rt.Spawn(fmt.Sprintf("idle-%d", heap), 0, heap)
		if err != nil {
			t.Fatalf("spawn a %d-byte heap: %v", heap, err)
		}
		var took time.Duration
		k.Spawn("migrate", func(p *sim.Proc) {
			start := p.Now()
			if err := rt.Migrate(p, pr.ID(), 1); err != nil {
				t.Errorf("%d-byte heap: %v", heap, err)
			}
			took = p.Now().Sub(start)
		})
		k.Run()
		k.Close()

		hi, lo := bits.Mul64(uint64(heap+netCfg.MsgOverheadBytes), uint64(time.Second))
		wire, _ := bits.Div64(hi, lo, uint64(netCfg.Bandwidth))
		perMiB := time.Duration(int64(migrationPerMiB) * heap >> 20)
		want := migrationFixedOverhead + perMiB + netCfg.Latency + time.Duration(wire)
		if took != want {
			t.Errorf("%d-byte heap: blackout %d ns, closed form %d ns (fixed %v + pin %v + latency %v + wire %v)",
				heap, took, want, migrationFixedOverhead, perMiB, netCfg.Latency, time.Duration(wire))
		}
	}
}
