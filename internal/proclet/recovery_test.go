package proclet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Crash recovery: orphaning, restore, abandonment, and the retry
// backoff that bridges the outage.

func TestBackoffScheduleNoJitter(t *testing.T) {
	tests := []struct {
		name      string
		base, max time.Duration
		retries   []int
		want      []time.Duration
	}{
		{
			name: "exponential-then-cap",
			base: 100 * time.Microsecond, max: 2 * time.Millisecond,
			retries: []int{0, 1, 2, 3, 4, 5, 6},
			want: []time.Duration{
				100 * time.Microsecond, 200 * time.Microsecond,
				400 * time.Microsecond, 800 * time.Microsecond,
				1600 * time.Microsecond, 2 * time.Millisecond,
				2 * time.Millisecond,
			},
		},
		{
			name: "deep-retry-hits-cap",
			base: time.Millisecond, max: 50 * time.Millisecond,
			retries: []int{30, 40, 63},
			want:    []time.Duration{50 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond},
		},
		{
			name: "shift-overflow-clamps-to-cap",
			base: time.Hour, max: 2 * time.Hour,
			retries: []int{25, 29},
			want:    []time.Duration{2 * time.Hour, 2 * time.Hour},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, rt := testEnv(t, 1)
			rt.cfg.RetryBackoffBase = tc.base
			rt.cfg.RetryBackoffMax = tc.max
			rt.cfg.RetryJitter = 0
			for i, r := range tc.retries {
				if got := rt.backoffDelay(r); got != tc.want[i] {
					t.Errorf("backoffDelay(%d) = %v, want %v", r, got, tc.want[i])
				}
			}
		})
	}
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	const jitter = 0.5
	draw := func() []time.Duration {
		_, _, rt := testEnv(t, 1) // testEnv seeds the kernel with 1
		rt.cfg.RetryJitter = jitter
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = rt.backoffDelay(i)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("retry %d: same seed gave %v then %v", i, a[i], b[i])
		}
		// Jittered delay stays within [1-j/2, 1+j/2) of the nominal value.
		_, _, rt := testEnv(t, 1)
		rt.cfg.RetryJitter = 0
		nominal := rt.backoffDelay(i)
		lo := time.Duration(float64(nominal) * (1 - jitter/2))
		hi := time.Duration(float64(nominal) * (1 + jitter/2))
		if a[i] < lo || a[i] > hi {
			t.Errorf("retry %d: jittered %v outside [%v, %v]", i, a[i], lo, hi)
		}
	}
}

// crash fail-stops machine mid: network first, then the machine, then
// the runtime's orphaning pass — the order the fault injector uses.
func crash(c *cluster.Cluster, rt *Runtime, mid cluster.MachineID) []*Proclet {
	c.Node(mid).SetDown(true)
	c.Machine(mid).Crash()
	return rt.CrashMachine(mid)
}

func TestCrashMachineOrphansResidents(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	var prs []*Proclet
	for i := 0; i < 3; i++ {
		pr, err := rt.Spawn("svc", 1, 4096)
		if err != nil {
			t.Fatal(err)
		}
		pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
		prs = append(prs, pr)
	}
	k.Spawn("ctl", func(p *sim.Proc) {
		orphans := crash(c, rt, 1)
		if len(orphans) != 3 {
			t.Fatalf("orphans = %d, want 3", len(orphans))
		}
		for i := 1; i < len(orphans); i++ {
			if orphans[i-1].ID() >= orphans[i].ID() {
				t.Errorf("orphans not sorted by ID: %d before %d", orphans[i-1].ID(), orphans[i].ID())
			}
		}
		for _, pr := range orphans {
			if pr.State() != StateOrphaned {
				t.Errorf("%s state = %v, want orphaned", pr.Name(), pr.State())
			}
		}
		if got := c.Machine(1).MemUsed(); got != 0 {
			t.Errorf("crashed machine MemUsed = %d, want 0", got)
		}
		// Invocations fail with ErrNodeDown (wrapped in ErrRetries after
		// the retry budget) — never hang, never silently succeed.
		if _, err := rt.Invoke(p, 0, 0, prs[0].ID(), "ping", Msg{}); !errors.Is(err, simnet.ErrNodeDown) {
			t.Errorf("invoke on orphan: err = %v, want ErrNodeDown", err)
		}
	})
	k.Run()
}

func TestRestoreResumesService(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 1, 4096)
	pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
	k.Spawn("ctl", func(p *sim.Proc) {
		crash(c, rt, 1)
		if err := rt.Restore(p, pr, 0); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if pr.State() != StateRunning || pr.Location() != 0 {
			t.Fatalf("after Restore: state=%v loc=%d", pr.State(), pr.Location())
		}
		if got := c.Machine(0).MemUsed(); got != 4096 {
			t.Errorf("restore target MemUsed = %d, want 4096", got)
		}
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "ping", Msg{}); err != nil {
			t.Errorf("invoke after Restore: %v", err)
		}
	})
	k.Run()
}

func TestRestoreRejectsDownDestination(t *testing.T) {
	k, c, rt := testEnv(t, 3)
	pr, _ := rt.Spawn("svc", 1, 4096)
	k.Spawn("ctl", func(p *sim.Proc) {
		crash(c, rt, 1)
		crash(c, rt, 2)
		if err := rt.Restore(p, pr, 2); !errors.Is(err, simnet.ErrNodeDown) {
			t.Errorf("Restore onto down machine: err = %v, want ErrNodeDown", err)
		}
		if pr.State() != StateOrphaned {
			t.Errorf("state = %v, want still orphaned after failed restore", pr.State())
		}
		// A live machine still works.
		if err := rt.Restore(p, pr, 0); err != nil {
			t.Errorf("Restore onto live machine: %v", err)
		}
	})
	k.Run()
}

func TestAbandonSurfacesNotFound(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 1, 4096)
	pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
	k.Spawn("ctl", func(p *sim.Proc) {
		crash(c, rt, 1)
		rt.Abandon(pr)
		if pr.State() != StateDead {
			t.Errorf("state = %v, want dead", pr.State())
		}
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "ping", Msg{}); !errors.Is(err, ErrNotFound) {
			t.Errorf("invoke after Abandon: err = %v, want ErrNotFound", err)
		}
	})
	k.Run()
}

// Crash during migration: whichever end dies mid-copy, the proclet must
// end up live on exactly one machine (or cleanly orphaned), with no
// double residency and no leaked memory charge.

func countResidency(rt *Runtime, id ID) (n int, at cluster.MachineID) {
	for _, m := range rt.Cluster.Machines() {
		if rt.localOn(m.ID, id) != nil {
			n++
			at = m.ID
		}
	}
	return n, at
}

func TestCrashDestinationDuringMigration(t *testing.T) {
	k, c, rt := testEnv(t, 3)
	pr, _ := rt.Spawn("svc", 0, 1<<20) // ~1ms copy at 1 GB/s
	pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
	k.Spawn("ctl", func(p *sim.Proc) {
		err := rt.Migrate(p, pr.ID(), 1)
		if !errors.Is(err, simnet.ErrNodeDown) {
			t.Errorf("Migrate err = %v, want ErrNodeDown", err)
		}
		if pr.State() != StateRunning || pr.Location() != 0 {
			t.Errorf("after rollback: state=%v loc=%d, want running on 0", pr.State(), pr.Location())
		}
		if n, at := countResidency(rt, pr.ID()); n != 1 || at != 0 {
			t.Errorf("residency = %d tables (at %d), want exactly 1 at machine 0", n, at)
		}
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "ping", Msg{}); err != nil {
			t.Errorf("invoke after rollback: %v", err)
		}
	})
	k.Spawn("chaos", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond) // mid-copy
		crash(c, rt, 1)
	})
	k.Run()
	if got := c.Machine(1).MemUsed(); got != 0 {
		t.Errorf("crashed destination MemUsed = %d, want 0 (no leaked reservation)", got)
	}
}

func TestCrashSourceDuringMigration(t *testing.T) {
	k, c, rt := testEnv(t, 3)
	pr, _ := rt.Spawn("svc", 0, 1<<20)
	pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
	k.Spawn("ctl", func(p *sim.Proc) {
		err := rt.Migrate(p, pr.ID(), 1)
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("Migrate err = %v, want ErrCrashed", err)
		}
		if pr.State() != StateOrphaned {
			t.Errorf("state = %v, want orphaned", pr.State())
		}
		// The half-copied destination image was abandoned: no charge left.
		if got := c.Machine(1).MemUsed(); got != 0 {
			t.Errorf("destination MemUsed = %d, want 0 after abandoned copy", got)
		}
		// Recovery lands the proclet on exactly one live machine.
		if err := rt.Restore(p, pr, 2); err != nil {
			t.Fatalf("Restore: %v", err)
		}
		if n, at := countResidency(rt, pr.ID()); n != 1 || at != 2 {
			t.Errorf("residency = %d tables (at %d), want exactly 1 at machine 2", n, at)
		}
		// Invoke from a live machine (the old source node is still down).
		if _, err := rt.Invoke(p, 1, 0, pr.ID(), "ping", Msg{}); err != nil {
			t.Errorf("invoke after recovery: %v", err)
		}
	})
	k.Spawn("chaos", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		crash(c, rt, 0)
	})
	k.Run()
}
