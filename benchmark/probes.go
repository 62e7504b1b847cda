package main

// Probes: fixed-count loops around one public call each, reporting host
// time and heap allocations per operation. They are the bodies of the
// repository's microbenchmarks (bench_test.go) plus one for each layer
// boundary those leave out, sized so the whole table takes a few
// seconds. Each probe builds its own fixture and tears it down, so no
// simulated process or pooled goroutine outlives it.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/scenario"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// probe measures one call: host time per operation under metric (in
// unit: ns, us or ms) and heap allocations per operation under allocs.
// simMetric, when set, names a simulated duration in microseconds that
// the fixture reports after its run.
type probe struct {
	metric    string
	unit      string
	allocs    string
	simMetric string
	n         int
	build     func() fixture
}

// fixture is a probe's built state. run performs n operations and
// returns how many it did; done releases the fixture; simUS, when set,
// reads the simulated duration named by probe.simMetric.
type fixture struct {
	run   func(n int) int
	done  func()
	simUS func() float64
}

var probes = []probe{
	{metric: "sim.schedule_step_ns", unit: "ns", allocs: "sim.schedule_step_allocs", n: 300_000, build: probeScheduleStep},
	{metric: "sim.same_instant_ns", unit: "ns", allocs: "sim.same_instant_allocs", n: 1_000_000, build: probeSameInstant},
	{metric: "sim.proc_switch_ns", unit: "ns", allocs: "sim.proc_switch_allocs", n: 100_000, build: probeProcSwitch},
	{metric: "sim.spawn_ns", unit: "ns", allocs: "sim.spawn_allocs", n: 100_000, build: probeSpawn},
	{metric: "sim.par.window_ns", unit: "ns", allocs: "sim.par.window_allocs", n: 50_000, build: probeParWindow},
	{metric: "sim.par.cross_send_ns", unit: "ns", allocs: "sim.par.cross_send_allocs", n: 640_000, build: probeCrossSend},
	{metric: "simnet.call_fast_ns", unit: "ns", allocs: "simnet.call_fast_allocs", n: 100_000, build: func() fixture { return probeRPCCall(true) }},
	{metric: "simnet.call_blocking_ns", unit: "ns", allocs: "simnet.call_blocking_allocs", n: 50_000, build: func() fixture { return probeRPCCall(false) }},
	{metric: "simnet.partition_call_ns", unit: "ns", allocs: "simnet.partition_call_allocs", n: 20_000, build: probePartitionCall},
	{metric: "simnet.transfer_ns", unit: "ns", allocs: "simnet.transfer_allocs", n: 100_000, build: probeTransfer},
	{metric: "cluster.submit_ns", unit: "ns", allocs: "cluster.submit_allocs", n: 30_000, build: probeSubmitChurn},
	{metric: "proclet.local_invoke_ns", unit: "ns", allocs: "proclet.local_invoke_allocs", n: 100_000, build: func() fixture { return probeInvoke(0) }},
	{metric: "proclet.remote_invoke_ns", unit: "ns", allocs: "proclet.remote_invoke_allocs", n: 50_000, build: func() fixture { return probeInvoke(1) }},
	{metric: "proclet.migrate_ns", unit: "ns", allocs: "proclet.migrate_allocs", n: 10_000, simMetric: "proclet.migrate_sim_us", build: probeMigrate},
	{metric: "core.mem_get_ns", unit: "ns", allocs: "core.mem_get_allocs", n: 50_000, build: func() fixture { return probeMemOp(false, 1) }},
	{metric: "core.mem_put_ns", unit: "ns", allocs: "core.mem_put_allocs", n: 50_000, build: func() fixture { return probeMemOp(true, 1) }},
	{metric: "core.repl_put_ns", unit: "ns", allocs: "core.repl_put_allocs", n: 20_000, build: func() fixture { return probeMemOp(true, 2) }},
	{metric: "core.compute_run_ns", unit: "ns", allocs: "core.compute_run_allocs", n: 50_000, build: probeComputeRun},
	{metric: "core.system_build_ms", unit: "ms", allocs: "core.system_build_allocs", n: 20, build: probeSystemBuild},
	{metric: "replication.idle_ns_per_sim_ms", unit: "ns", allocs: "replication.idle_allocs_per_sim_ms", n: 300, build: probeDetectorIdle},
	{metric: "sharded.map_put_ns", unit: "ns", allocs: "sharded.map_put_allocs", n: 30_000, build: probeMapPut},
	{metric: "sharded.map_getbatch_ns", unit: "ns", allocs: "sharded.map_getbatch_allocs", n: 5_000, build: probeMapGetBatch},
	{metric: "sharded.queue_pushpop_ns", unit: "ns", allocs: "sharded.queue_pushpop_allocs", n: 20_000, build: probeQueuePushPop},
	{metric: "sharded.vector_iter_ns", unit: "ns", allocs: "sharded.vector_iter_allocs", n: 100_000, build: probeVectorIter},
	{metric: "load.arrival_draw_ns", unit: "ns", allocs: "load.arrival_draw_allocs", n: 20_000, build: probeArrivalDraw},
	{metric: "load.zipf_sample_ns", unit: "ns", allocs: "load.zipf_sample_allocs", n: 2_000_000, build: probeZipfSample},
	{metric: "load.injector_ns", unit: "ns", allocs: "load.injector_allocs", n: 500_000, build: probeInjector},
	{metric: "metrics.loghist_record_ns", unit: "ns", allocs: "metrics.loghist_record_allocs", n: 5_000_000, build: probeLogHist},
	{metric: "obs.span_ns", unit: "ns", allocs: "obs.span_allocs", n: 200_000, build: probeSpan},
	{metric: "obs.slo_observe_ns", unit: "ns", allocs: "obs.slo_observe_allocs", n: 2_000_000, build: probeSLOObserve},
	{metric: "scenario.parse_us", unit: "us", allocs: "scenario.parse_allocs", n: 500, build: probeParse},
	{metric: "gpu.step_ns", unit: "ns", allocs: "gpu.step_allocs", n: 50_000, build: probeGPUStep},
}

// probeResult is one probe's measurement.
type probeResult struct {
	perOp, allocsPerOp, simUS float64
}

// runProbe builds the fixture, warms it with a tenth of the count, then
// times n/div operations.
func runProbe(p probe, div int) probeResult {
	n := p.n / div
	if n < 1 {
		n = 1
	}
	fx := p.build()
	defer fx.done()
	fx.run((n + 9) / 10)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := float64(fx.run(n))
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	unitNS := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[p.unit]
	res := probeResult{
		perOp:       float64(elapsed.Nanoseconds()) / unitNS / ops,
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / ops,
	}
	if fx.simUS != nil {
		res.simUS = fx.simUS()
	}
	return res
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark probe: %v", err))
	}
}

func nothing() {}

// twoMachines is the fixture most probes share, as in bench_test.go.
func twoMachines() *core.System {
	return core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 4 << 30},
		{Cores: 8, MemBytes: 4 << 30},
	})
}

// inProc returns a fixture whose run executes body(p, n) in a simulated
// process on sys's kernel and drives the kernel until that process
// finishes. Kernel.Stop ends the run even when the system has
// background processes (heartbeats, reactors) that never finish.
func inProc(sys *core.System, body func(p *sim.Proc, n int)) fixture {
	return fixture{
		run: func(n int) int {
			sys.K.Spawn("probe", func(p *sim.Proc) {
				body(p, n)
				sys.K.Stop()
			})
			sys.K.Run()
			return n
		},
		done: sys.Close,
	}
}

// onKernel is inProc for fixtures that have a bare kernel and no
// background processes.
func onKernel(k *sim.Kernel, body func(p *sim.Proc, n int)) fixture {
	return fixture{
		run: func(n int) int {
			k.Spawn("probe", func(p *sim.Proc) { body(p, n) })
			k.Run()
			return n
		},
		done: k.Close,
	}
}

func probeScheduleStep() fixture {
	k := sim.NewKernel(1)
	noop := func() {}
	return fixture{done: k.Close, run: func(n int) int {
		for i := 0; i < n; i++ {
			k.Schedule(k.Now(), noop)
			k.Schedule(k.Now(), noop)
			k.After(time.Microsecond, noop)
			for k.Step() {
			}
		}
		return n
	}}
}

func probeSameInstant() fixture {
	k := sim.NewKernel(1)
	noop := func() {}
	return fixture{done: k.Close, run: func(n int) int {
		for i := 0; i < n; i++ {
			k.Schedule(k.Now(), noop)
			k.Step()
		}
		return n
	}}
}

// probeProcSwitch times a simulated process yielding to the kernel and
// being resumed: two goroutine handoffs per operation.
func probeProcSwitch() fixture {
	return onKernel(sim.NewKernel(1), func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			p.Yield()
		}
	})
}

// probeSpawn times starting and finishing an empty simulated process on
// a recycled pool worker.
func probeSpawn() fixture {
	k := sim.NewKernel(1)
	body := func(*sim.Proc) {}
	return fixture{done: k.Close, run: func(n int) int {
		for i := 0; i < n; i++ {
			k.Spawn("p", body)
			for k.Step() {
			}
		}
		return n
	}}
}

// probeParWindow times one ParKernel window at S=8 with one timer event
// per shard per window, the barrier serve-read crosses 25k times a rep.
func probeParWindow() fixture {
	const shards = 8
	lookahead := sim.Time(2 * time.Microsecond)
	pk := sim.NewParKernel(1, shards, lookahead)
	pk.SetWorkers(simWorkers)
	for s := 0; s < shards; s++ {
		pk.Shard(s).Every(0, time.Duration(lookahead), func() bool { return true })
	}
	return fixture{done: pk.Close, run: func(n int) int {
		before := pk.Windows()
		pk.RunUntil(pk.Shard(0).Now() + sim.Time(n)*lookahead)
		return int(pk.Windows() - before)
	}}
}

// probeCrossSend times ParKernel.Send and its barrier delivery: shard 0
// sends 64 messages to shard 1 in every window.
func probeCrossSend() fixture {
	const perWindow = 64
	lookahead := sim.Time(2 * time.Microsecond)
	pk := sim.NewParKernel(1, 2, lookahead)
	pk.SetWorkers(simWorkers)
	noop := func() {}
	k0 := pk.Shard(0)
	k0.Every(0, time.Duration(lookahead), func() bool {
		for i := 0; i < perWindow; i++ {
			pk.Send(0, 1, k0.Now()+lookahead, noop)
		}
		return true
	})
	return fixture{done: pk.Close, run: func(n int) int {
		before := pk.CrossMessages()
		pk.RunUntil(k0.Now() + sim.Time(n/perWindow+1)*lookahead)
		return int(pk.CrossMessages() - before)
	}}
}

// probeRPCCall times the raw fabric RPC path: an inline fast handler or
// a pooled-process blocking handler.
func probeRPCCall(fast bool) fixture {
	k := sim.NewKernel(1)
	f := simnet.New(k, simnet.DefaultConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	if fast {
		srv.HandleFast("echo", func(simnet.Message) (simnet.Message, error) {
			return simnet.Message{Bytes: 128}, nil
		})
	} else {
		srv.Handle("echo", func(*sim.Proc, simnet.Message) (simnet.Message, error) {
			return simnet.Message{Bytes: 128}, nil
		})
	}
	return onKernel(k, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			_, err := f.Call(p, 1, 2, "echo", simnet.Message{Bytes: 128})
			must(err)
		}
	})
}

// probePartitionCall times a cross-shard RPC through simnet.Partition:
// mailbox hop, inline fast handler on the far shard, mailbox hop back.
func probePartitionCall() fixture {
	cfg := simnet.DefaultConfig()
	pk := sim.NewParKernel(1, 2, sim.Time(cfg.Latency))
	pk.SetWorkers(simWorkers)
	fabrics := []*simnet.Fabric{simnet.New(pk.Shard(0), cfg), simnet.New(pk.Shard(1), cfg)}
	fabrics[0].AddNode(1)
	fabrics[1].AddNode(1).HandleFast("echo", func(simnet.Message) (simnet.Message, error) {
		return simnet.Message{Bytes: 128}, nil
	})
	pt := simnet.NewPartition(pk, fabrics)
	from, to := simnet.ShardNode{Shard: 0, Node: 1}, simnet.ShardNode{Shard: 1, Node: 1}
	return fixture{done: pk.Close, run: func(n int) int {
		pk.Shard(0).Spawn("probe", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := pt.Call(p, from, to, "echo", simnet.Message{Bytes: 128})
				must(err)
			}
		})
		pk.Run()
		return n
	}}
}

func probeTransfer() fixture {
	k := sim.NewKernel(1)
	f := simnet.New(k, simnet.DefaultConfig())
	f.AddNode(1)
	f.AddNode(2)
	return onKernel(k, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			must(f.Transfer(p, 1, 2, 64<<10))
		}
	})
}

// probeSubmitChurn times the processor-sharing machine under task
// churn; one operation is eight submits, a rate change, a cancellation
// and completion retirement.
func probeSubmitChurn() fixture {
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 4})
	return fixture{done: k.Close, run: func(n int) int {
		for i := 0; i < n; i++ {
			var last *cluster.Task
			for j := 0; j < 8; j++ {
				last = m.Submit(100 * time.Microsecond)
			}
			m.SetReserved(float64(i % 4))
			k.RunUntil(k.Now().Add(150 * time.Microsecond))
			last.Cancel()
			k.RunUntil(k.Now().Add(time.Millisecond))
		}
		return n
	}}
}

// probeInvoke times proclet method dispatch from machine 0 to a proclet
// on machine target: 0 is the local path, 1 the cross-machine RPC.
func probeInvoke(target cluster.MachineID) fixture {
	sys := twoMachines()
	pr, err := sys.Runtime.Spawn("svc", target, 1024)
	must(err)
	pr.Handle("noop", func(*proclet.Ctx, proclet.Msg) (proclet.Msg, error) {
		return proclet.Msg{Bytes: 128}, nil
	})
	return inProc(sys, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			_, err := sys.Runtime.Invoke(p, 0, 0, pr.ID(), "noop", proclet.Msg{Bytes: 128})
			must(err)
		}
	})
}

// probeMigrate bounces a 64 KiB proclet between two machines. Its
// simulated mean latency is the paper's sub-millisecond migration claim.
func probeMigrate() fixture {
	sys := twoMachines()
	pr, err := sys.Runtime.Spawn("migrant", 0, 64<<10)
	must(err)
	fx := inProc(sys, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			must(sys.Runtime.Migrate(p, pr.ID(), 1-pr.Location()))
		}
	})
	fx.simUS = func() float64 { return sys.Runtime.MigrationLatency.Mean() * 1e6 }
	return fx
}

// probeMemOp times a memory-proclet Get or Put from machine 0 against a
// store on machine 1 holding 1024 objects of 256 bytes; rf=2 adds the
// replication plane, so every Put ships a log record before its ack.
func probeMemOp(put bool, rf int) fixture {
	const objects = 1024
	machines := make([]cluster.MachineConfig, 4)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 8, MemBytes: 4 << 30}
	}
	sys := core.NewSystem(core.DefaultConfig(), machines)
	sys.Start()
	var rm *core.ReplManager
	if rf > 1 {
		rm = sys.EnableReplicationPlane(replication.Config{}, 0)
	}
	mp, err := core.NewMemoryProcletOn(sys, "store", 1)
	must(err)
	if rm != nil {
		must(rm.Replicate(mp, rf))
	}
	loaded := false
	return inProc(sys, func(p *sim.Proc, n int) {
		if !loaded {
			for id := uint64(0); id < objects; id++ {
				must(mp.Put(p, 0, id, int64(id), 256))
			}
			loaded = true
		}
		for i := 0; i < n; i++ {
			id := uint64(i % objects)
			if put {
				must(mp.Put(p, 0, id, int64(i), 256))
			} else {
				_, err := mp.Get(p, 0, id)
				must(err)
			}
		}
	})
}

// probeComputeRun times a compute proclet taking and running a task
// that computes for one simulated microsecond.
func probeComputeRun() fixture {
	sys := twoMachines()
	sys.Start()
	cp, err := core.NewComputeProcletOn(sys, "worker", 0, 1)
	must(err)
	task := func(tc *core.TaskCtx) { tc.Compute(time.Microsecond) }
	return inProc(sys, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			cp.Run(task)
			if i%256 == 255 {
				cp.WaitIdle(p)
			}
		}
		cp.WaitIdle(p)
	})
}

// probeSystemBuild times building one 125-machine shard, the unit the
// scenario engine builds eight of before serve-read's first event.
func probeSystemBuild() fixture {
	machines := make([]cluster.MachineConfig, 125)
	for i := range machines {
		machines[i] = cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20}
	}
	return fixture{done: nothing, run: func(n int) int {
		for i := 0; i < n; i++ {
			sys := core.NewSystem(core.DefaultConfig(), machines)
			sys.Start()
			sys.Close()
		}
		return n
	}}
}

// probeDetectorIdle times one simulated millisecond of the heartbeat
// failure detector over 16 healthy machines: the standing cost the
// replication plane adds to every rf=2 run.
func probeDetectorIdle() fixture {
	k := sim.NewKernel(1)
	cl := cluster.New(k, simnet.DefaultConfig())
	for i := 0; i < 16; i++ {
		cl.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 64 << 20})
	}
	det := replication.NewDetector(k, cl, nil, replication.Config{}, 0)
	det.Start()
	return fixture{done: k.Close, run: func(n int) int {
		k.RunUntil(k.Now().Add(time.Duration(n) * time.Millisecond))
		return n
	}}
}

func probeMapPut() fixture {
	sys := twoMachines()
	m, err := sharded.NewMap[int, int](sys, "probe", sharded.Options{MaxShardBytes: 1 << 20})
	must(err)
	next := 0
	return inProc(sys, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			must(m.Put(p, 0, next, next, 256))
			next++
		}
	})
}

// probeMapGetBatch times one 32-key GetBatch against a 4096-key map
// spread over several shards.
func probeMapGetBatch() fixture {
	const keys, batch = 4096, 32
	sys := twoMachines()
	m, err := sharded.NewMap[int, int](sys, "probe", sharded.Options{MaxShardBytes: 256 << 10})
	must(err)
	loaded := false
	ks := make([]int, batch)
	return inProc(sys, func(p *sim.Proc, n int) {
		if !loaded {
			for i := 0; i < keys; i++ {
				must(m.Put(p, 0, i, i, 256))
			}
			loaded = true
		}
		for i := 0; i < n; i++ {
			for j := range ks {
				ks[j] = (i*batch + j*127) % keys
			}
			_, _, err := m.GetBatch(p, 0, ks)
			must(err)
		}
	})
}

func probeQueuePushPop() fixture {
	sys := twoMachines()
	q, err := sharded.NewQueue[int](sys, "probe", sharded.Options{MaxShardBytes: 1 << 20})
	must(err)
	return inProc(sys, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			must(q.Push(p, 0, i, 256))
			_, err := q.Pop(p, 1)
			must(err)
		}
	})
}

// probeVectorIter streams a 4096-element sharded vector with prefetch.
func probeVectorIter() fixture {
	sys := twoMachines()
	v, err := sharded.NewVector[int](sys, "probe", sharded.Options{MaxShardBytes: 4 << 20})
	must(err)
	loaded := false
	return inProc(sys, func(p *sim.Proc, n int) {
		if !loaded {
			for i := 0; i < 4096; i++ {
				must(v.PushBack(p, 1, i, 4<<10))
			}
			loaded = true
		}
		for done := 0; done < n; {
			it := v.Iter(32)
			for done < n {
				_, ok, err := it.Next(p, 0)
				must(err)
				if !ok {
					break
				}
				done++
			}
		}
	})
}

// probeArrivalDraw times drawing one 250 us window of arrivals at about
// 400k req/s from a diurnal curve, the injector's per-window step.
func probeArrivalDraw() fixture {
	horizon := sim.Time(time.Hour)
	curve := load.Sampled(horizon, 250*time.Millisecond, load.Diurnal(400_000, 0.5, 10*time.Second))
	a := load.NewArrivals(curve, rand.New(rand.NewSource(1)))
	window := sim.Time(250 * time.Microsecond)
	from := sim.Time(0)
	return fixture{done: nothing, run: func(n int) int {
		for i := 0; i < n; i++ {
			a.Draw(from, from+window)
			from += window
		}
		return n
	}}
}

// probeSink keeps the compiler from discarding the sampled keys.
var probeSink uint64

func probeZipfSample() fixture {
	z := load.NewZipf(10_000_000, 0.99)
	rng := rand.New(rand.NewSource(1))
	return fixture{done: nothing, run: func(n int) int {
		for i := 0; i < n; i++ {
			probeSink += load.ScrambleKey(z.Sample(rng))
		}
		return n
	}}
}

// probeInjector times the whole generate, schedule, deliver path per
// request: one tenant at 500k req/s handed to a counting handler.
func probeInjector() fixture {
	const rate = 500_000
	k := sim.NewKernel(1)
	z := load.NewZipf(1<<20, 0.9)
	return fixture{done: k.Close, run: func(n int) int {
		delivered := 0
		inj := load.NewInjector(k, 250*time.Microsecond, func(load.Request) { delivered++ })
		inj.AddTenant("t", load.Constant(rate), z)
		inj.Start(k.Now(), k.Now().Add(time.Duration(n)*time.Second/rate))
		k.Run()
		return delivered
	}}
}

func probeLogHist() fixture {
	h := metrics.NewLogHistogram("probe")
	return fixture{done: nothing, run: func(n int) int {
		for i := 0; i < n; i++ {
			h.Record(int64(i)*7919 + 1000)
		}
		return n
	}}
}

// probeSpan times recording one causal span (start and end) in the
// in-program tracer.
func probeSpan() fixture {
	k := sim.NewKernel(1)
	return fixture{done: k.Close, run: func(n int) int {
		t := obs.NewTracer(k)
		for i := 0; i < n; i++ {
			t.End(t.Start("rpc", "probe", 0, 0))
		}
		return n
	}}
}

// probeSLOObserve times folding one completion into the streaming SLO
// monitor; a 1 ms window closes every 1000 observations.
func probeSLOObserve() fixture {
	m := slo.New(slo.Config{
		Window:  sim.Time(time.Millisecond),
		Windows: 4,
		Rules:   []slo.Rule{{Kind: slo.P999Above, BoundMS: 1, For: 2}},
		Subject: "probe",
		Machine: -1,
	})
	at := sim.Time(0)
	return fixture{done: nothing, run: func(n int) int {
		for i := 0; i < n; i++ {
			at += sim.Time(time.Microsecond)
			m.Observe(at, int64(20_000+i%4096), false)
		}
		return n
	}}
}

func probeParse() fixture {
	src, err := workloadFS.ReadFile("workloads/matrix/az-outage.yaml")
	must(err)
	return fixture{done: nothing, run: func(n int) int {
		for i := 0; i < n; i++ {
			_, err := scenario.Parse(string(src))
			must(err)
		}
		return n
	}}
}

// probeGPUStep times one training step (batch upload and kernel)
// through the GPU proclet path.
func probeGPUStep() fixture {
	sys := twoMachines()
	m := sys.Cluster.Machine(0)
	m.AddGPUs(cluster.GPUConfig{Count: 1, MemBytes: 16 << 30, LinkBandwidth: 16_000_000_000})
	gp, err := gpu.New(sys, "trainer", m.GPU(0), 1<<30, 100*time.Microsecond)
	must(err)
	return inProc(sys, func(p *sim.Proc, n int) {
		for i := 0; i < n; i++ {
			must(gp.Step(p, 0, 1<<20))
		}
	})
}
