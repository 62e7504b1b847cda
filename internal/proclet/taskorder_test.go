package proclet

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// disturbances is every way a proclet's outstanding thread computes get
// suspended; each leaves the proclet on machine 1, or destroyed.
var disturbances = []struct {
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
}

// TestSuspendedThreadsResumeInSubmissionOrder: whatever suspends a
// multi-threaded proclet's outstanding computes — a migration, a crash, a
// deposal, its destruction — cancels them oldest first, so the order in
// which its threads wake, wait for the proclet to come back, resubmit
// and finish is a property of the program. Six equal computes on an
// 8-core machine finish in the order they were cancelled; with the task
// set in a Go map that order changed from one kernel to the next.
func TestSuspendedThreadsResumeInSubmissionOrder(t *testing.T) {
	const threads = 6
	for _, tc := range disturbances {
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

// computeStep is the simulation as one event left it.
type computeStep struct {
	now           sim.Time
	blocked, live int
	runnable      [2]int
	listed        int // computes the proclet would cancel if suspended now
	finished      string
}

// runThreadComputes has three threads of one proclet each run four 40 µs
// computes back to back — blocking, or as the stages of one park — and
// suspends them 10 µs into the second, stepping event by event.
func runThreadComputes(t *testing.T, staged bool, disturb func(t *testing.T, p *sim.Proc, c *cluster.Cluster, rt *Runtime, pr *Proclet)) []computeStep {
	t.Helper()
	const threads, rounds, work = 3, 4, 40 * time.Microsecond
	k, c, rt := testEnv(t, 2)
	defer k.Close()
	pr, err := rt.Spawn("workers", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var finished []byte
	for i := 0; i < threads; i++ {
		i := i
		pr.SpawnThread("w", func(th *Thread) {
			if !staged {
				for r := 0; r < rounds; r++ {
					th.Compute(work)
					finished = append(finished, byte('0'+i))
				}
				return
			}
			r := 0
			stage := func() *sim.Cond {
				for {
					if c := th.ComputeStep(); c != nil {
						return c
					}
					finished = append(finished, byte('0'+i))
					if r++; r == rounds {
						return nil
					}
					th.ComputeBegin(work)
				}
			}
			th.ComputeBegin(work)
			th.Proc().WaitStaged(th.ComputeStep(), stage)
		})
	}
	k.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(50 * time.Microsecond)
		disturb(t, p, c, rt, pr)
	})
	var steps []computeStep
	for k.Step() {
		steps = append(steps, computeStep{
			now: k.Now(), blocked: k.Blocked(), live: k.Live(),
			runnable: [2]int{c.Machine(0).Runnable(), c.Machine(1).Runnable()},
			listed:   len(pr.tasks), finished: string(finished),
		})
	}
	return steps
}

// TestStagedThreadComputeMatchesBlocking: a thread that runs its computes
// from a WaitStaged stage, never resumed between them, is step for step
// the thread that calls Compute — through every kind of suspension — and
// in both forms the proclet lists only computes some thread is still in:
// a finished one it kept listed would be cancelled, on its next
// suspension, out from under whichever thread its recycled Task serves by
// then.
func TestStagedThreadComputeMatchesBlocking(t *testing.T) {
	for _, tc := range disturbances {
		t.Run(tc.name, func(t *testing.T) {
			want := runThreadComputes(t, false, tc.disturb)
			got := runThreadComputes(t, true, tc.disturb)
			if len(got) != len(want) {
				t.Fatalf("staged ran %d events, blocking %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("after event %d: staged %+v, blocking %+v", i, got[i], want[i])
				}
				// A retired task stays listed until its thread has woken.
				if st := want[i]; st.listed > 3 || st.listed < st.runnable[0]+st.runnable[1] {
					t.Fatalf("after event %d the proclet lists %d computes for 3 threads, %d of them resident: %+v",
						i, st.listed, st.runnable[0]+st.runnable[1], st)
				}
			}
			last := want[len(want)-1]
			if last.listed != 0 {
				t.Errorf("the proclet still lists %d computes after every thread returned", last.listed)
			}
			if tc.name != "Destroy" && len(last.finished) != 12 {
				t.Errorf("%d computes finished (%s), want 12", len(last.finished), last.finished)
			}
			if last.live != 0 || last.blocked != 0 {
				t.Errorf("the run ended with Live=%d Blocked=%d, want 0 0", last.live, last.blocked)
			}
		})
	}
}
