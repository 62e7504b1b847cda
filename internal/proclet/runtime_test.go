package proclet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// testEnv builds a 2-machine cluster with simple, round-number costs:
// 1 GB/s NIC, 10 us latency, zero per-message/RPC overhead.
func testEnv(t *testing.T, machines int) (*sim.Kernel, *cluster.Cluster, *Runtime) {
	t.Helper()
	k := sim.NewKernel(1)
	netCfg := simnet.Config{
		Latency:   10 * time.Microsecond,
		Bandwidth: 1_000_000_000,
	}
	c := cluster.New(k, netCfg)
	for i := 0; i < machines; i++ {
		c.AddMachine(cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30})
	}
	cfg := Config{
		MigrationFixedOverhead: 100 * time.Microsecond,
		MigrationPerMiB:        0,
		DirectoryLookup:        5 * time.Microsecond,
		LocalInvokeOverhead:    100 * time.Nanosecond,
		MaxInvokeRetries:       16,
		LazyRemotePenalty:      4 * time.Microsecond,
	}
	rt := NewRuntime(c, cfg, obs.NewLog())
	return k, c, rt
}

func TestSpawnAccountsMemory(t *testing.T) {
	_, c, rt := testEnv(t, 2)
	pr, err := rt.Spawn("mem-0", 0, 1<<20)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if pr.Location() != 0 || pr.HeapBytes() != 1<<20 {
		t.Errorf("loc=%d heap=%d", pr.Location(), pr.HeapBytes())
	}
	if c.Machine(0).MemUsed() != 1<<20 {
		t.Errorf("machine mem = %d, want 1MiB", c.Machine(0).MemUsed())
	}
	if rt.Lookup(pr.ID()) != pr {
		t.Error("Lookup failed")
	}
}

func TestSpawnRejectsOversize(t *testing.T) {
	_, _, rt := testEnv(t, 1)
	if _, err := rt.Spawn("big", 0, 2<<30); !errors.Is(err, cluster.ErrNoMemory) {
		t.Errorf("err = %v, want ErrNoMemory", err)
	}
}

func TestLocalInvoke(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("counter", 0, 1024)
	count := 0
	pr.Handle("inc", func(ctx *Ctx, arg Msg) (Msg, error) {
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
	// Local path: directory lookup (5us, cold cache) + 100ns dispatch.
	want := 5*time.Microsecond + 100*time.Nanosecond
	if elapsed != want {
		t.Errorf("local invoke took %v, want %v", elapsed, want)
	}
	if rt.LocalInvokes.Value() != 1 || rt.RemoteInvokes.Value() != 0 {
		t.Errorf("local/remote = %d/%d", rt.LocalInvokes.Value(), rt.RemoteInvokes.Value())
	}
}

func TestRemoteInvoke(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 1, 1024)
	pr.Handle("echo", func(ctx *Ctx, arg Msg) (Msg, error) {
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
		// 2 x 10us latency + 2 x 1us wire must be included.
		if p.Now() < 22*sim.Microsecond {
			t.Errorf("remote invoke finished at %v, too fast", p.Now())
		}
	})
	k.Run()
	if rt.RemoteInvokes.Value() != 1 {
		t.Errorf("RemoteInvokes = %d, want 1", rt.RemoteInvokes.Value())
	}
}

func TestInvokeNoMethod(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	pr, _ := rt.Spawn("svc", 0, 0)
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "missing", Msg{}); !errors.Is(err, ErrNoMethod) {
			t.Errorf("err = %v, want ErrNoMethod", err)
		}
	})
	k.Run()
}

func TestInvokeUnknownProclet(t *testing.T) {
	k, _, rt := testEnv(t, 1)
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, 0, 0, 999, "m", Msg{}); !errors.Is(err, ErrNotFound) {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})
	k.Run()
}

func TestMigrateMovesStateAndMemory(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("mover", 0, 10<<20) // 10 MiB
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.Migrate(p, pr.ID(), 1); err != nil {
			t.Errorf("Migrate: %v", err)
		}
		// 10 MiB at 1 GB/s ~ 10.49ms + 100us fixed + 10us latency.
		if pr.Location() != 1 {
			t.Errorf("location = %d, want 1", pr.Location())
		}
	})
	k.Run()
	if c.Machine(0).MemUsed() != 0 {
		t.Errorf("src mem = %d, want 0", c.Machine(0).MemUsed())
	}
	if c.Machine(1).MemUsed() != 10<<20 {
		t.Errorf("dst mem = %d, want 10MiB", c.Machine(1).MemUsed())
	}
	if rt.Migrations.Value() != 1 {
		t.Errorf("Migrations = %d", rt.Migrations.Value())
	}
	lat := rt.MigrationLatency.Mean()
	if lat < 0.010 || lat > 0.012 {
		t.Errorf("migration latency = %vs, want ~10.6ms", lat)
	}
}

func TestMigrateSmallProcletSubMillisecond(t *testing.T) {
	// The Nu headline: small-state proclets migrate in well under 1 ms.
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("small", 0, 64<<10) // 64 KiB
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.Migrate(p, pr.ID(), 1); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	k.Run()
	if lat := rt.MigrationLatency.Mean(); lat >= 0.001 {
		t.Errorf("64KiB migration took %vs, want < 1ms", lat)
	}
}

func TestMigrateRejectedWhenDestinationFull(t *testing.T) {
	k, c, rt := testEnv(t, 2)
	// Fill machine 1.
	if err := c.Machine(1).AllocMem(1 << 30); err != nil {
		t.Fatal(err)
	}
	pr, _ := rt.Spawn("p", 0, 1<<20)
	k.Spawn("ctl", func(p *sim.Proc) {
		if err := rt.Migrate(p, pr.ID(), 1); !errors.Is(err, cluster.ErrNoMemory) {
			t.Errorf("err = %v, want ErrNoMemory", err)
		}
		if pr.Location() != 0 || pr.State() != StateRunning {
			t.Errorf("proclet disturbed: loc=%d state=%v", pr.Location(), pr.State())
		}
	})
	k.Run()
}

func TestInvokeBlocksDuringMigrationThenFollows(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 0, 1<<20)
	served := []cluster.MachineID{}
	pr.Handle("where", func(ctx *Ctx, arg Msg) (Msg, error) {
		served = append(served, ctx.Self.Location())
		return Msg{}, nil
	})
	// Warm the client cache, then migrate, then call again: the stale
	// cache must be chased to the new location.
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "where", Msg{}); err != nil {
			t.Errorf("first invoke: %v", err)
		}
		p.Sleep(time.Millisecond)
		if _, err := rt.Invoke(p, 0, 0, pr.ID(), "where", Msg{}); err != nil {
			t.Errorf("second invoke: %v", err)
		}
	})
	k.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		if err := rt.Migrate(p, pr.ID(), 1); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	k.Run()
	if len(served) != 2 || served[0] != 0 || served[1] != 1 {
		t.Errorf("served on machines %v, want [0 1]", served)
	}
}

func TestMigrationDrainsActiveInvocations(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("svc", 0, 1024)
	pr.Handle("slow", func(ctx *Ctx, arg Msg) (Msg, error) {
		ctx.Proc.Sleep(5 * time.Millisecond)
		return Msg{}, nil
	})
	var migratedAt sim.Time
	k.Spawn("client", func(p *sim.Proc) {
		rt.Invoke(p, 0, 0, pr.ID(), "slow", Msg{})
	})
	k.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // invocation now in flight
		if err := rt.Migrate(p, pr.ID(), 1); err != nil {
			t.Errorf("Migrate: %v", err)
		}
		migratedAt = p.Now()
	})
	k.Run()
	if migratedAt < 5*sim.Millisecond {
		t.Errorf("migration finished at %v, before invocation drained", migratedAt)
	}
}

func TestThreadComputeFollowsMigration(t *testing.T) {
	// A thread with 20ms of work starts on machine 0. At t=5ms the
	// proclet migrates. The remaining 15ms must execute on machine 1,
	// even though machine 0 then goes fully reserved.
	k, c, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("worker", 0, 64<<10)
	var done sim.Time
	pr.SpawnThread("loop", func(th *Thread) {
		th.Compute(20 * time.Millisecond)
		done = th.Proc().Now()
	})
	k.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		c.Machine(0).SetReserved(8) // old machine becomes useless
		if err := rt.Migrate(p, pr.ID(), 1); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	k.Run()
	if done == 0 {
		t.Fatal("thread never finished")
	}
	// 5ms on m0 + ~0.2ms migration + 15ms on m1 => ~20.2ms; it must not
	// have waited for machine 0's reservation to lift (never does).
	if done > 21*sim.Millisecond {
		t.Errorf("thread finished at %v, want ~20.2ms (compute must follow proclet)", done)
	}
	// Machine 1 must have executed the remainder.
	if c.Machine(1).CoreSeconds < 0.0149 {
		t.Errorf("machine 1 core-seconds = %v, want ~0.015", c.Machine(1).CoreSeconds)
	}
}

func TestDestroyFreesMemoryAndFailsCalls(t *testing.T) {
	k, c, rt := testEnv(t, 1)
	pr, _ := rt.Spawn("tmp", 0, 1<<20)
	pr.Handle("m", func(ctx *Ctx, arg Msg) (Msg, error) { return Msg{}, nil })
	id := pr.ID()
	if err := rt.Destroy(id); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if c.Machine(0).MemUsed() != 0 {
		t.Errorf("mem = %d after destroy", c.Machine(0).MemUsed())
	}
	if rt.Lookup(id) != nil {
		t.Error("Lookup returns destroyed proclet")
	}
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := rt.Invoke(p, 0, 0, id, "m", Msg{}); !errors.Is(err, ErrNotFound) {
			t.Errorf("invoke after destroy: %v, want ErrNotFound", err)
		}
	})
	k.Run()
}

func TestGrowHeapChargesMachine(t *testing.T) {
	_, c, rt := testEnv(t, 1)
	pr, _ := rt.Spawn("grow", 0, 1000)
	if err := pr.GrowHeap(500); err != nil {
		t.Fatalf("GrowHeap: %v", err)
	}
	if pr.HeapBytes() != 1500 || c.Machine(0).MemUsed() != 1500 {
		t.Errorf("heap=%d mem=%d", pr.HeapBytes(), c.Machine(0).MemUsed())
	}
	if err := pr.GrowHeap(-700); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if pr.HeapBytes() != 800 || c.Machine(0).MemUsed() != 800 {
		t.Errorf("after shrink heap=%d mem=%d", pr.HeapBytes(), c.Machine(0).MemUsed())
	}
	if err := pr.GrowHeap(2 << 30); !errors.Is(err, cluster.ErrNoMemory) {
		t.Errorf("oversize grow err = %v", err)
	}
}

func TestAffinityTracking(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	a, _ := rt.Spawn("a", 0, 1024)
	b, _ := rt.Spawn("b", 1, 1024)
	b.Handle("recv", func(ctx *Ctx, arg Msg) (Msg, error) {
		return Msg{Bytes: 200}, nil
	})
	k.Spawn("driver", func(p *sim.Proc) {
		if _, err := a.Call(p, b.ID(), "recv", Msg{Bytes: 300}); err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	k.Run()
	if got := b.CommBytes()[a.ID()]; got != 500 {
		t.Errorf("affinity bytes = %d, want 500", got)
	}
	b.ResetComm()
	if len(b.CommBytes()) != 0 {
		t.Error("ResetComm did not clear")
	}
}

func TestCtxNestedCall(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	front, _ := rt.Spawn("front", 0, 1024)
	back, _ := rt.Spawn("back", 1, 1024)
	back.Handle("add", func(ctx *Ctx, arg Msg) (Msg, error) {
		return Msg{Payload: arg.Payload.(int) + 1}, nil
	})
	front.Handle("relay", func(ctx *Ctx, arg Msg) (Msg, error) {
		return ctx.Call(back.ID(), "add", arg)
	})
	k.Spawn("client", func(p *sim.Proc) {
		res, err := rt.Invoke(p, 0, 0, front.ID(), "relay", Msg{Payload: 41})
		if err != nil {
			t.Errorf("Invoke: %v", err)
		}
		if res.Payload != 42 {
			t.Errorf("result = %v, want 42", res.Payload)
		}
	})
	k.Run()
}

func TestMigrationLatencyScalesWithState(t *testing.T) {
	// Regenerates the shape behind Nu's "a few ms for 10 MiB": latency
	// grows roughly linearly in heap size past the fixed overhead.
	sizes := []int64{1 << 16, 1 << 20, 10 << 20}
	var lats []float64
	for _, size := range sizes {
		k, _, rt := testEnv(t, 2)
		pr, err := rt.Spawn("p", 0, size)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn("ctl", func(p *sim.Proc) {
			if err := rt.Migrate(p, pr.ID(), 1); err != nil {
				t.Errorf("Migrate: %v", err)
			}
		})
		k.Run()
		lats = append(lats, rt.MigrationLatency.Mean())
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Errorf("latencies not increasing: %v", lats)
	}
	if lats[2] < 8*lats[1] { // 10 MiB should be ~10x the 1 MiB wire time
		t.Errorf("10MiB/1MiB latency ratio = %v, want >= 8", lats[2]/lats[1])
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	k, _, rt := testEnv(t, 2)
	pr, _ := rt.Spawn("traced", 0, 1024)
	k.Spawn("ctl", func(p *sim.Proc) {
		rt.Migrate(p, pr.ID(), 1)
	})
	k.Run()
	rt.Destroy(pr.ID())
	tl := rt.Trace
	if tl.Count(obs.KindSpawn) != 1 || tl.Count(obs.KindMigrate) != 1 || tl.Count(obs.KindDestroy) != 1 {
		t.Errorf("trace counts: spawn=%d migrate=%d destroy=%d",
			tl.Count(obs.KindSpawn), tl.Count(obs.KindMigrate), tl.Count(obs.KindDestroy))
	}
}
