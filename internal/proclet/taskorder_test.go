package proclet

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestSuspendedThreadsResumeInSubmissionOrder: whatever suspends a
// multi-threaded proclet's outstanding computes — a migration, a crash, a
// deposal, its destruction — cancels them oldest first, so the order in
// which its threads wake, wait for the proclet to come back, resubmit
// and finish is a property of the program. Six equal computes on an
// 8-core machine finish in the order they were cancelled; with the task
// set in a Go map that order changed from one kernel to the next.
func TestSuspendedThreadsResumeInSubmissionOrder(t *testing.T) {
	const threads = 6
	for _, tc := range []struct {
		name    string
		disturb func(t *testing.T, p *sim.Proc, c *cluster.Cluster, rt *Runtime, pr *Proclet)
	}{
		{"Migrate", func(t *testing.T, p *sim.Proc, _ *cluster.Cluster, rt *Runtime, pr *Proclet) {
			if err := rt.Migrate(p, pr.ID(), 1); err != nil {
				t.Errorf("Migrate: %v", err)
			}
		}},
		{"MigrateLazy", func(t *testing.T, p *sim.Proc, _ *cluster.Cluster, rt *Runtime, pr *Proclet) {
			if err := rt.MigrateLazy(p, pr.ID(), 1); err != nil {
				t.Errorf("MigrateLazy: %v", err)
			}
		}},
		{"CrashMachine+Restore", func(t *testing.T, p *sim.Proc, c *cluster.Cluster, rt *Runtime, pr *Proclet) {
			// The runtime's pass alone: the tasks are still resident, so
			// it is CrashMachine that cancels them.
			rt.CrashMachine(0)
			c.Machine(0).Crash()
			if err := rt.Restore(p, pr, 1); err != nil {
				t.Errorf("Restore: %v", err)
			}
		}},
		{"Depose+Restore", func(t *testing.T, p *sim.Proc, _ *cluster.Cluster, rt *Runtime, pr *Proclet) {
			if err := rt.Depose(pr); err != nil {
				t.Errorf("Depose: %v", err)
			}
			if err := rt.Restore(p, pr, 1); err != nil {
				t.Errorf("Restore: %v", err)
			}
		}},
		{"Destroy", func(t *testing.T, _ *sim.Proc, _ *cluster.Cluster, rt *Runtime, pr *Proclet) {
			if err := rt.Destroy(pr.ID()); err != nil {
				t.Errorf("Destroy: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[string]int{}
			for run := 0; run < 40; run++ {
				k, c, rt := testEnv(t, 2)
				pr, err := rt.Spawn("workers", 0, 4096)
				if err != nil {
					t.Fatal(err)
				}
				var order []byte
				for i := 0; i < threads; i++ {
					i := i
					pr.SpawnThread("w", func(th *Thread) {
						th.Compute(100 * time.Microsecond)
						order = append(order, byte('0'+i))
					})
				}
				k.Spawn("ctl", func(p *sim.Proc) {
					p.Sleep(10 * time.Microsecond)
					tc.disturb(t, p, c, rt, pr)
				})
				k.Run()
				k.Close()
				seen[string(order)]++
			}
			if len(seen) != 1 || seen["012345"] != 40 {
				t.Errorf("thread completion orders over 40 identical runs: %v, want only 012345", seen)
			}
		})
	}
}
