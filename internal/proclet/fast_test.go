package proclet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// handleFast gives pr a method table of one fast method: a Methods that
// one proclet uses.
func handleFast(pr *Proclet, method string, fn func(arg Msg) (Msg, error)) {
	var m Methods
	m.HandleFast(method, func(_ *Proclet, arg Msg) (Msg, error) { return fn(arg) })
	pr.UseMethods(&m)
}

// TestFastMethodLocal: a fast method invoked locally skips the Ctx but
// pays the same simulated costs as a blocking method.
func TestFastMethodLocal(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	defer k.Close()
	pr, _ := rt.Spawn("counter", 0, 1024)
	count := 0
	handleFast(pr, "inc", func(arg Msg) (Msg, error) {
		count++
		return Msg{Payload: count}, nil
	})
	var elapsed time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		res, err := rt.Invoke(p, 0, 0, pr.ID(), "inc", Msg{})
		if err != nil {
			t.Errorf("Invoke: %v", err)
		}
		if res.Payload != 1 {
			t.Errorf("result = %v, want 1", res.Payload)
		}
		elapsed = p.Now().Sub(start)
	})
	k.Run()
	// Identical virtual cost to the blocking local path: directory
	// lookup (cold cache) + dispatch overhead.
	want := 5*time.Microsecond + 100*time.Nanosecond
	if elapsed != want {
		t.Errorf("local fast invoke took %v, want %v", elapsed, want)
	}
	if rt.FastInvokes.Value() != 1 {
		t.Errorf("FastInvokes = %d, want 1", rt.FastInvokes.Value())
	}
	if pr.Invocations() != 1 {
		t.Errorf("Invocations = %d, want 1", pr.Invocations())
	}
}

// TestFastMethodRemoteInline: a remote invocation of a fast method is
// served inline by the fabric (no handler process) while still paying
// full wire costs.
func TestFastMethodRemoteInline(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	defer k.Close()
	pr, _ := rt.Spawn("svc", 1, 1024)
	handleFast(pr, "echo", func(arg Msg) (Msg, error) {
		return Msg{Payload: arg.Payload, Bytes: arg.Bytes}, nil
	})
	k.Spawn("client", func(p *sim.Proc) {
		res, err := rt.Invoke(p, 0, 0, pr.ID(), "echo", Msg{Payload: "x", Bytes: 1000})
		if err != nil {
			t.Errorf("Invoke: %v", err)
		}
		if res.Payload != "x" {
			t.Errorf("payload = %v", res.Payload)
		}
		// 2 x 10us latency + 2 x 1us wire must still be charged.
		if p.Now() < 22*sim.Microsecond {
			t.Errorf("remote fast invoke finished at %v, too fast", p.Now())
		}
	})
	k.Run()
	if rt.FastInvokes.Value() != 1 || rt.RemoteInvokes.Value() != 1 {
		t.Errorf("fast/remote = %d/%d, want 1/1", rt.FastInvokes.Value(), rt.RemoteInvokes.Value())
	}
	if c.Fabric.FastCalls.Value() != 1 {
		t.Errorf("fabric FastCalls = %d, want 1 (served inline)", c.Fabric.FastCalls.Value())
	}
}

// TestFastMethodDuringLazyWindow: while a post-copy window is open the
// inline path must decline (the remote-access penalty is a sleep), and
// invocations served through the normal path must pay that penalty.
func TestFastMethodDuringLazyWindow(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	defer k.Close()
	pr, _ := rt.Spawn("svc", 0, 16<<20)
	handleFast(pr, "get", func(arg Msg) (Msg, error) {
		return Msg{Payload: "v"}, nil
	})
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.MigrateLazy(p, pr.ID(), 1); err != nil {
			t.Errorf("MigrateLazy: %v", err)
		}
		if !pr.lazyWindow {
			t.Fatal("proclet already resident; lazy window too short for test")
		}
		// The inline dispatch path must refuse to serve during the
		// window rather than skip the penalty.
		if _, err := rt.execFastOn(1, simnet.Message{Payload: &invokeReq{Target: pr.ID(), Method: "get"}}); !errors.Is(err, simnet.ErrWouldBlock) {
			t.Errorf("execFastOn during lazy window: err = %v, want ErrWouldBlock", err)
		}
		// An invocation at the proclet's new home pays the penalty on
		// the normal path. (Remote requests physically queue behind the
		// heap stream on the destination NIC, so they land only after
		// residency — per-NIC FIFO semantics.)
		start := p.Now()
		res, err := rt.Invoke(p, 1, 0, pr.ID(), "get", Msg{})
		if err != nil || res.Payload != "v" {
			t.Errorf("invoke during lazy window: res=%v err=%v", res.Payload, err)
		}
		if rt.LazyPenalties.Value() != 1 {
			t.Errorf("LazyPenalties = %d, want 1", rt.LazyPenalties.Value())
		}
		if elapsed := p.Now().Sub(start); elapsed < lazyRemotePenalty {
			t.Errorf("lazy-window invoke took %v, want >= %v penalty", elapsed, lazyRemotePenalty)
		}
	})
	k.Run()
}

// TestFastMethodChasesMigration: a stale location cache still resolves
// for fast methods — the inline path reports ErrMoved and routing
// retries at the new home.
func TestFastMethodChasesMigration(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	defer k.Close()
	pr, _ := rt.Spawn("svc", 1, 1024)
	handleFast(pr, "where", func(arg Msg) (Msg, error) {
		return Msg{Payload: int(pr.Location())}, nil
	})
	k.Spawn("driver", func(p *sim.Proc) {
		// Warm machine 0's cache with location 1.
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "where", Msg{}); err != nil {
			t.Errorf("warmup: %v", err)
		}
		if err := rt.Migrate(p, pr.ID(), 0); err != nil {
			t.Errorf("Migrate: %v", err)
		}
		// The cache on machine 0 still says 1 — the fast path at node 1
		// must answer ErrMoved so routing retries locally.
		res, err := rt.Invoke(p, 0, 0, pr.ID(), "where", Msg{})
		if err != nil {
			t.Errorf("post-migration invoke: %v", err)
		}
		if res.Payload != 0 {
			t.Errorf("served at machine %v, want 0", res.Payload)
		}
	})
	k.Run()
}

// TestFabricWideInvokeIsToldItsNode: one registration serves
// proclet.invoke on every machine, told the machine the request landed
// on, so a request sent straight to a proclet's old home answers ErrMoved
// and one sent to its new home is served there.
func TestFabricWideInvokeIsToldItsNode(t *testing.T) {
	k, c, rt := testEnv(t, 3)
	defer k.Close()
	pr, _ := rt.Spawn("svc", 0, 1024)
	handleFast(pr, "where", func(arg Msg) (Msg, error) {
		return Msg{Word: uint64(pr.Location())}, nil
	})
	k.Spawn("driver", func(p *sim.Proc) {
		if err := rt.Migrate(p, pr.ID(), 1); err != nil {
			t.Fatalf("Migrate: %v", err)
		}
		req := &invokeReq{Target: pr.ID(), Method: "where"}
		for to, want := range []error{ErrMoved, nil, ErrMoved} {
			res, err := c.Fabric.Call(p, 2, simnet.NodeID(to), methodInvoke, simnet.Message{Payload: req})
			if !errors.Is(err, want) || (want == nil && res.Word != 1) {
				t.Errorf("invoke landing on m%d = %d, %v; want err %v", to, res.Word, err, want)
			}
		}
	})
	k.Run()
}

// TestHandleFastDuplicatePanics: registering a method as both fast and
// blocking is a programming error.
func TestHandleFastDuplicatePanics(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	defer k.Close()
	pr, _ := rt.Spawn("svc", 0, 1024)
	handleFast(pr, "m", func(arg Msg) (Msg, error) { return Msg{}, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dual registration")
		}
	}()
	pr.Handle("m", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
}
