package proclet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// residences counts the post-copy windows that closed: the control-plane
// log records each one as it lands.
func residences(rt *Runtime) int {
	n := 0
	rt.Trace.Each(func(e *obs.Event) {
		if strings.HasPrefix(e.Detail(), "post-copy resident") {
			n++
		}
	})
	return n
}

func TestMigrateLazyConstantBlackout(t *testing.T) {
	// Post-copy blackout must not depend on state size; pre-copy must.
	blackout := func(size int64, lazy bool) float64 {
		k, _, rt := testEnv(t, 2)
		pr, err := rt.Spawn("p", 0, size)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn("ctl", func(p *sim.Proc) {
			if lazy {
				err = rt.MigrateLazy(p, pr.ID(), 1)
			} else {
				err = rt.Migrate(p, pr.ID(), 1)
			}
			if err != nil {
				t.Errorf("migrate: %v", err)
			}
		})
		k.Run()
		return rt.MigrationLatency.Mean()
	}
	lazySmall := blackout(1<<20, true)
	lazyBig := blackout(64<<20, true)
	preBig := blackout(64<<20, false)
	if lazySmall != lazyBig {
		t.Errorf("post-copy blackout varies with size: %v vs %v", lazySmall, lazyBig)
	}
	if preBig < 20*lazyBig {
		t.Errorf("pre-copy 64MiB blackout (%v) should dwarf post-copy (%v)", preBig, lazyBig)
	}
}

func TestMigrateLazyServesImmediatelyWithPenalty(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 0, 32<<20) // 32 MiB: background copy ~34ms
	pr.Handle("ping", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.MigrateLazy(p, pr.ID(), 1); err != nil {
			t.Fatalf("MigrateLazy: %v", err)
		}
		if pr.Location() != 1 {
			t.Fatalf("location = %d immediately after lazy migrate", pr.Location())
		}
		if !pr.lazyWindow {
			t.Fatal("resident before background copy")
		}
		// Invocation during the window: works, but pays the penalty.
		before := rt.LazyPenalties.Value()
		if _, err := rt.Invoke(p, 1, 0, pr.ID(), "ping", Msg{}); err != nil {
			t.Fatalf("invoke during window: %v", err)
		}
		if rt.LazyPenalties.Value() != before+1 {
			t.Error("no lazy penalty charged during window")
		}
		// After residence, no penalty.
		p.Sleep(100 * time.Millisecond)
		if pr.lazyWindow {
			t.Fatal("still not resident after 100ms")
		}
		before = rt.LazyPenalties.Value()
		if _, err := rt.Invoke(p, 1, 0, pr.ID(), "ping", Msg{}); err != nil {
			t.Fatalf("invoke after residence: %v", err)
		}
		if rt.LazyPenalties.Value() != before {
			t.Error("penalty charged after residence")
		}
	})
	k.Run()
	if n := residences(rt); n != 1 {
		t.Errorf("residences = %d, want 1", n)
	}
}

func TestMigrateLazyMemoryAccounting(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("p", 0, 16<<20)
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.MigrateLazy(p, pr.ID(), 1); err != nil {
			t.Fatal(err)
		}
		// During the window both machines hold a share: src the bytes,
		// dst the reservation.
		if c.Machine(0).MemUsed() != 16<<20 || c.Machine(1).MemUsed() != 16<<20 {
			t.Errorf("window accounting: src=%d dst=%d", c.Machine(0).MemUsed(), c.Machine(1).MemUsed())
		}
		p.Sleep(100 * time.Millisecond)
	})
	k.Run()
	if c.Machine(0).MemUsed() != 0 || c.Machine(1).MemUsed() != 16<<20 {
		t.Errorf("final accounting: src=%d dst=%d", c.Machine(0).MemUsed(), c.Machine(1).MemUsed())
	}
}

func TestMigrateLazyRejectsOverlap(t *testing.T) {
	k, _, rt := testEnv(t, 3)
	pr, _ := rt.Spawn("p", 0, 32<<20)
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.MigrateLazy(p, pr.ID(), 1); err != nil {
			t.Fatal(err)
		}
		// Neither a second lazy nor a pre-copy migration may start
		// before residence.
		if err := rt.MigrateLazy(p, pr.ID(), 2); !errors.Is(err, ErrMigrating) {
			t.Errorf("second lazy = %v, want ErrMigrating", err)
		}
		if err := rt.Migrate(p, pr.ID(), 2); !errors.Is(err, ErrMigrating) {
			t.Errorf("pre-copy during window = %v, want ErrMigrating", err)
		}
		p.Sleep(100 * time.Millisecond)
		if err := rt.Migrate(p, pr.ID(), 2); err != nil {
			t.Errorf("migrate after residence: %v", err)
		}
	})
	k.Run()
	checkInvariants(t, rt)
}

func TestMigrateLazyInvariantsAfterChain(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("p", 0, 4<<20)
	k.Spawn("ctl", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			target := 1 - pr.Location()
			if err := rt.MigrateLazy(p, pr.ID(), target); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
			p.Sleep(50 * time.Millisecond) // let residence land
		}
	})
	k.Run()
	checkInvariants(t, rt)
	if n := residences(rt); n != 4 {
		t.Errorf("residences = %d, want 4", n)
	}
}
