package quicksand

// Repository-level benchmarks: one per paper table/figure (running the
// experiment at TestScale; use `go run ./cmd/quicksand-bench -scale
// full` for the paper-scale numbers reported in EXPERIMENTS.md), plus
// micro-benchmarks of the runtime primitives those experiments rest
// on. Benchmarks report key experiment outcomes as custom metrics so
// regressions in *behaviour*, not just wall time, are visible.

import (
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/replication"
	"repro/internal/scenario"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// benchSystem builds the standard 2-machine benchmark fixture.
func benchSystem() *core.System {
	return core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 4 << 30},
		{Cores: 8, MemBytes: 4 << 30},
	})
}

// ---- Paper figures ----

// unmemoized empties the experiments package's run memo before a
// benchmark iteration. A process simulates each distinct run once, so
// without it every iteration after the first would time the memo, not
// the simulation; the worker count stays at its default.
func unmemoized() { experiments.SetParallelism(0) }

// BenchmarkFig1FillerMigration regenerates Figure 1: the filler
// application migrating across machines every 10 ms.
func BenchmarkFig1FillerMigration(b *testing.B) {
	b.ReportAllocs()
	var goodput float64
	for i := 0; i < b.N; i++ {
		unmemoized()
		res, err := experiments.Run("fig1", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		goodput = res.Values["quicksand.goodput_pct"]
	}
	b.ReportMetric(goodput, "goodput_%ideal")
}

// BenchmarkFig2Imbalance regenerates Figure 2: preprocessing-time
// parity across imbalanced machine splits.
func BenchmarkFig2Imbalance(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		unmemoized()
		res, err := experiments.Run("fig2", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, cfgName := range []string{"cpu-unbalanced", "mem-unbalanced", "both-unbalanced"} {
			if r := res.Values[cfgName+".ratio"]; r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst_ratio_vs_baseline")
}

// BenchmarkFig3Adaptation regenerates Figure 3: compute proclets
// tracking 4<->8 GPU swings.
func BenchmarkFig3Adaptation(b *testing.B) {
	b.ReportAllocs()
	var react float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("fig3", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		react = res.Values["react_mean_ms"]
	}
	b.ReportMetric(react, "settle_ms")
}

// ---- Ablations ----

func benchAblation(b *testing.B, id, metric, unit string) {
	b.Helper()
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		unmemoized()
		res, err := experiments.Run(id, experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		v = res.Values[metric]
	}
	b.ReportMetric(v, unit)
}

func BenchmarkAblMigrationSweep(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-migration", "latency_ms.10485760", "mig10MiB_ms")
}

func BenchmarkAblSplitSweep(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-split", "split_ms.1048576", "split1MiB_ms")
}

func BenchmarkAblPrefetch(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-prefetch", "speedup", "prefetch_speedup_x")
}

func BenchmarkAblSched(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-sched", "global-only.goodput_pct", "globalonly_goodput_%")
}

func BenchmarkAblLocality(b *testing.B) {
	b.ReportAllocs()
	benchAblation(b, "abl-locality", "speedup", "colocation_speedup_x")
}

// ---- Runtime micro-benchmarks ----

// BenchmarkKernelEventThroughput measures raw simulator event
// processing (host events per host second).
func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelScheduleStep measures the schedule/dispatch cycle
// through both queue paths: two same-instant events (FIFO fast path)
// plus one future event (binary heap).
func BenchmarkKernelScheduleStep(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	noop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now(), noop)
		k.Schedule(k.Now(), noop)
		k.After(time.Microsecond, noop)
		for k.Step() {
		}
	}
}

// BenchmarkTimerRearm measures one Arm of a pending timer among 16 queued
// events: the firing is re-keyed where it sits in the heap and sifted,
// which is what every Submit and retirement costs a machine's completion
// timer.
func BenchmarkTimerRearm(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	noop := func() {}
	for i := 1; i <= 16; i++ {
		k.Schedule(sim.Time(i)*sim.Millisecond, noop)
	}
	var t sim.Timer
	t.Init(k, func(uint64) {}, 0)
	t.Arm(sim.Microsecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Arm(sim.Time(i%17)*sim.Millisecond + sim.Microsecond)
	}
}

// BenchmarkComputeUnit measures one unit of simulated compute in the fig1
// shape — Machine.Exec of 50 µs by one of 8 workers whose tasks are all
// resident and staggered, so each completion retires one task and each
// resubmission moves the completion timer.
func BenchmarkComputeUnit(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 8})
	left := b.N
	for w := 0; w < 8; w++ {
		stagger := time.Duration(w) * 6 * time.Microsecond
		k.Spawn("worker", func(p *sim.Proc) {
			p.Sleep(stagger)
			for left > 0 {
				left--
				m.Exec(p, 50*time.Microsecond)
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkComputeTask measures one filler unit as fig1 runs it: 8
// single-worker compute proclets on an 8-core machine, each kept busy by
// two 50 µs units that count and re-enqueue themselves. blocking is the
// closure that computes and counts on the worker's thread, one switch in
// and out a unit; staged is RunCompute, whose worker is never switched in.
func BenchmarkComputeTask(b *testing.B) {
	const unit = 50 * time.Microsecond
	for _, staged := range []bool{false, true} {
		name := "blocking"
		if staged {
			name = "staged"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sys := benchSystem()
			defer sys.Close()
			left := b.N
			// One closure value feeds every unit, as in fig1.
			var count, whole core.TaskFn
			feed := func(cp *core.ComputeProclet) {
				if staged {
					cp.RunCompute(unit, count)
				} else {
					cp.Run(whole)
				}
			}
			count = func(tc *core.TaskCtx) {
				if left--; left > 0 {
					feed(tc.ComputeProclet())
				}
			}
			whole = func(tc *core.TaskCtx) {
				tc.Compute(unit)
				count(tc)
			}
			for i := 0; i < 8; i++ {
				cp, err := core.NewComputeProcletOn(sys, "filler", 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				feed(cp)
				feed(cp)
			}
			b.ResetTimer()
			sys.K.Run()
		})
	}
}

// BenchmarkRunCall measures one abl-locality op: 8 single-worker compute
// proclets on machine 0, each reading over the network from a proclet on
// machine 1 and computing 5 µs on the reply, over and over. blocking is
// the task that invokes and then computes on the worker's thread, two
// switches in and out an op; staged is RunCall whose continuation
// enqueues a RunCompute, and the worker is never switched in.
func BenchmarkRunCall(b *testing.B) {
	const work = 5 * time.Microsecond
	arg := proclet.Msg{Word: 1, Bytes: 8}
	for _, staged := range []bool{false, true} {
		name := "blocking"
		if staged {
			name = "staged"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sys := benchSystem()
			defer sys.Close()
			data, err := sys.Runtime.Spawn("data", 1, 1024)
			if err != nil {
				b.Fatal(err)
			}
			var m proclet.Methods
			m.HandleFast("get", func(_ *proclet.Proclet, arg proclet.Msg) (proclet.Msg, error) {
				return proclet.Msg{Word: arg.Word, Bytes: 64}, nil
			})
			data.UseMethods(&m)
			left := b.N
			var op, next core.TaskFn
			var got core.CallFn
			next = func(tc *core.TaskCtx) {
				if left--; left > 0 {
					op(tc)
				}
			}
			got = func(tc *core.TaskCtx, _ proclet.Msg, err error) {
				if err != nil {
					b.Error(err)
					return
				}
				tc.ComputeProclet().RunCompute(work, next)
			}
			whole := func(tc *core.TaskCtx) {
				cp := tc.ComputeProclet()
				if _, err := sys.Runtime.Invoke(tc.Proc(), cp.Location(), cp.ID(), data.ID(), "get", arg); err != nil {
					b.Error(err)
					return
				}
				tc.Compute(work)
				next(tc)
			}
			op = func(tc *core.TaskCtx) {
				if staged {
					tc.ComputeProclet().RunCall(data.ID(), "get", arg, got)
				} else {
					tc.ComputeProclet().Run(whole)
				}
			}
			for i := 0; i < 8; i++ {
				cp, err := core.NewComputeProcletOn(sys, "reader", 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				cp.Run(op)
			}
			b.ResetTimer()
			sys.K.Run()
		})
	}
}

// BenchmarkProcSwitch measures one kernel-to-process round trip, two
// coroutine switches: a process that wakes from Sleep, finds nothing to
// do and sleeps again, which is what every idle poll cost before a poll
// became an Await stage.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	k.Spawn("poller", func(p *sim.Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	k.Step() // start the process; it parks in its first Sleep
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkAwaitTick measures the same idle poll through Await: the
// stage runs in kernel context and queues the next delay, so a tick is a
// pop and a push with no handoff.
func BenchmarkAwaitTick(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	idle := func() sim.Wait { return sim.After(time.Microsecond) }
	k.Spawn("poller", func(p *sim.Proc) { p.Await(idle(), idle) })
	k.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkSpawnPollersTick measures the idle poll of a lone SpawnPollers
// member, which has no Proc and no worker behind it: a pop, a predicate
// call and a push.
func BenchmarkSpawnPollersTick(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	k.SpawnPollers(1, time.Microsecond, func(int) string { return "poller" },
		func(int) bool { return false }, func(*sim.Proc, int) {})
	k.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkPollFleet measures an idle member tick in the shape serve-read
// gives it, which one poller on an empty queue cannot show: 125 calm
// reactors polling every 200us beside 64 future events that are in no
// order (and never come due here). The reactors are one run, so a round is
// one pop and one push for all 125, and an op is one member's tick.
func BenchmarkPollFleet(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	k.SpawnPollers(125, 200*time.Microsecond, func(int) string { return "reactor" },
		func(int) bool { return false }, func(*sim.Proc, int) {})
	for i := 0; i < 64; i++ {
		k.ScheduleTagged(sim.Time(1000*time.Hour)+sim.Time(k.Rand().Int63n(int64(time.Hour))), func(uint64) {}, 0)
	}
	k.RunUntil(sim.Millisecond) // every reactor past its start event and polling
	b.ResetTimer()
	for end := k.EventsProcessed() + uint64(b.N); k.EventsProcessed() < end; {
		k.Step()
	}
}

// BenchmarkInjectorWindow measures one 250us injector window at 400k
// req/s from two tenants, end to end: draw the arrivals, sample and
// number their keys, hand them all over in (At, seq) order.
func BenchmarkInjectorWindow(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	const window = 250 * time.Microsecond
	var delivered int
	inj := load.NewInjector(k, window, func(load.Request) { delivered++ })
	z := load.NewZipf(65536, 0.9)
	inj.AddTenant("web", load.Constant(300_000), z)
	inj.AddTenant("api", load.Constant(100_000), z)
	const warm = 64 // windows, to grow the reusable buffers
	inj.Start(0, sim.Time(warm+b.N)*sim.Time(window))
	k.RunUntil(warm*sim.Time(window) - 1)
	delivered = 0
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(delivered)/float64(b.N), "arrivals/window")
}

// BenchmarkMachineSubmitChurn measures the processor-sharing machine
// under task churn: submits, a rate change, a cancellation, and
// completion retirement per iteration.
func BenchmarkMachineSubmitChurn(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	m := cluster.NewMachine(k, 0, "m", cluster.MachineConfig{Cores: 4})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var last *cluster.Task
		for j := 0; j < 8; j++ {
			last = m.Submit(100 * time.Microsecond)
		}
		m.SetReserved(float64(n % 4))
		k.RunUntil(k.Now().Add(150 * time.Microsecond))
		last.Cancel()
		k.RunUntil(k.Now().Add(time.Millisecond))
	}
}

// BenchmarkLocalInvoke measures same-machine proclet method dispatch.
func BenchmarkLocalInvoke(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	pr, err := sys.Runtime.Spawn("svc", 0, 1024)
	if err != nil {
		b.Fatal(err)
	}
	pr.Handle("noop", func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		return proclet.Msg{}, nil
	})
	b.ResetTimer()
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Runtime.Invoke(p, 0, 0, pr.ID(), "noop", proclet.Msg{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkRemoteInvoke measures cross-machine proclet RPC.
func BenchmarkRemoteInvoke(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	pr, err := sys.Runtime.Spawn("svc", 1, 1024)
	if err != nil {
		b.Fatal(err)
	}
	pr.Handle("noop", func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		return proclet.Msg{Bytes: 128}, nil
	})
	b.ResetTimer()
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := sys.Runtime.Invoke(p, 0, 0, pr.ID(), "noop", proclet.Msg{Bytes: 128}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkReplicatedPutBatch measures one replicated write the way a
// scenario server issues it: an 8-object PutBatch over existing keys from
// machine 0 to an rf=2 store on a 4-machine system, applied, log-shipped
// to the backup and acked before it returns. Steady state allocates
// nothing: the batch is the caller's and the records ride the pipe's
// recycled buffers. (benchmark/'s core.repl_put_* probe times single Puts.)
func BenchmarkReplicatedPutBatch(b *testing.B) {
	b.ReportAllocs()
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 4 << 30}, {Cores: 8, MemBytes: 4 << 30},
		{Cores: 8, MemBytes: 4 << 30}, {Cores: 8, MemBytes: 4 << 30},
	})
	defer sys.Close()
	rm := sys.EnableReplicationPlane(replication.Config{}, 0)
	mp, err := core.NewMemoryProcletOn(sys, "store", 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := rm.Replicate(mp, 2); err != nil {
		b.Fatal(err)
	}
	batch := core.Batch{IDs: make([]uint64, 8), Vals: make([]core.Value, 8), Sizes: make([]int64, 8)}
	for i := range batch.IDs {
		batch.IDs[i], batch.Vals[i], batch.Sizes[i] = uint64(i), core.Int(int64(i)), 256
	}
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := -64; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer() // the object table, the pipe's buffers and the pools have grown
			}
			if err := mp.PutBatch(p, 0, &batch); err != nil {
				b.Error(err)
				break
			}
		}
		sys.K.Stop() // the detector's heartbeats never run out
	})
	sys.K.Run()
}

// fanoutCycle builds a fleet.Server on machine 0 over 16 stores of 64
// objects on machine 1 and returns one cycle: 64 arrivals, four keys a
// store, served as one batch.
func fanoutCycle(tb testing.TB) (cycle func(), t *fleet.Tally, done func()) {
	sys := benchSystem()
	stores, err := fleet.PlaceStores(sys, "store-%d", 16, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	led := fleet.NewLedger(stores, 256)
	sh := &fleet.Shard{Tally: fleet.Tally{Hist: metrics.NewLogHistogram("lat"), Deadline: int64(time.Hour)}, Sys: sys, Ledger: led}
	t = &sh.Tally
	sv := fleet.NewServer(sh, 64, 64, 0)
	var q load.Queue
	sys.K.Spawn("setup", func(p *sim.Proc) {
		if err := led.Preload(p, fleet.Objects(64, 256)); err != nil {
			tb.Error(err)
		}
		q.Serve(sys.K, nil, sim.Time(time.Hour), 20*time.Microsecond, 64, sv, nil)
	})
	key := uint64(0)
	cycle = func() {
		for i := 0; i < 64; i++ {
			q.Push(load.Request{At: sys.K.Now(), Key: key % (16 * 64)})
			key++
		}
		for n := t.Served; t.Served == n; {
			sys.K.Step()
		}
	}
	return cycle, t, sys.Close
}

// BenchmarkServeFanout measures one serving batch end to end the way the
// serving workloads run it: 64 arrivals taken off a load.Queue as one
// batch and read by a fleet.Server from 16 remote stores, one GetBatch
// invocation after another, every step of it an Await stage of the
// server's process. The process is never switched in, and nothing is
// allocated.
func BenchmarkServeFanout(b *testing.B) {
	b.ReportAllocs()
	cycle, t, done := fanoutCycle(b)
	defer done()
	for i := 0; i < 16; i++ {
		cycle() // the pools and the buffers have grown
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if t.Errors != 0 {
		b.Fatalf("%d keys failed", t.Errors)
	}
}

// TestServeFanoutAllocatesNothing: BenchmarkServeFanout's batch allocates
// nothing at steady state.
func TestServeFanoutAllocatesNothing(t *testing.T) {
	cycle, tally, done := fanoutCycle(t)
	defer done()
	for i := 0; i < 16; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a 16-store fan-out batch allocates %v objects, want 0", a)
	}
	if tally.Errors != 0 {
		t.Fatalf("%d keys failed", tally.Errors)
	}
}

// TestReplicatedPutBatchAllocatesNothing: a fleet.Server's write batch to
// rf-2 stores allocates nothing at steady state and switches no process
// in, with the primaries remote — a staged handler process serves each
// write — and with one on the server's machine, whose write the server's
// invocation steps itself. Either way each write's records are shipped to
// its backup by a staged commit, while the failure detector pings every
// machine.
func TestReplicatedPutBatchAllocatesNothing(t *testing.T) {
	for _, first := range []int{1, 0} {
		machines := make([]cluster.MachineConfig, 4)
		for i := range machines {
			machines[i] = cluster.MachineConfig{Cores: 8, MemBytes: 4 << 30}
		}
		sys := core.NewSystem(core.DefaultConfig(), machines)
		sys.EnableReplicationPlane(replication.Config{}, 0)
		stores, err := fleet.PlaceStores(sys, "store-%d", 2, first, 2)
		if err != nil {
			t.Fatal(err)
		}
		sh := &fleet.Shard{Tally: fleet.Tally{Hist: metrics.NewLogHistogram("lat"), Deadline: int64(time.Hour)}, Sys: sys, Ledger: fleet.NewLedger(stores, 256)}
		tally := &sh.Tally
		sv := fleet.NewServer(sh, 64, 64, 1)
		var q load.Queue
		q.Serve(sys.K, nil, sim.Time(time.Hour), 20*time.Microsecond, 64, sv, nil)
		key := uint64(0)
		cycle := func() {
			for i := 0; i < 64; i++ {
				q.Push(load.Request{At: sys.K.Now(), Key: key % 256})
				key++
			}
			for n := tally.Served; tally.Served == n; {
				sys.K.Step()
			}
		}
		for i := 0; i < 32; i++ {
			cycle() // every key written once; the pools and the buffers have grown
		}
		switches := sys.K.Switches()
		if a := testing.AllocsPerRun(100, cycle); a != 0 {
			t.Errorf("primaries from machine %d: a replicated write batch allocates %v objects, want 0", first, a)
		}
		if n := sys.K.Switches() - switches; n != 0 {
			t.Errorf("primaries from machine %d: 101 write batches switched %d times, want 0", first, n)
		}
		if tally.Errors != 0 || tally.Acked == 0 {
			t.Errorf("primaries from machine %d: %d keys failed, %d acked", first, tally.Errors, tally.Acked)
		}
		sys.Close()
	}
}

// servingKeys draws 64k keys at a serving workload's skew: Zipf(0.99) over
// 64k ranks, scrambled, so most of a run's keys repeat.
func servingKeys() []uint64 {
	z := load.NewZipf(1<<16, 0.99)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = load.ScrambleKey(z.Sample(rng))
	}
	return keys
}

// BenchmarkObjTableUpsert measures one object-table upsert, per id, at a
// serving workload's skew: 8-id PutBatches of scalars drawn Zipf(0.99)
// from 64k scrambled keys into an unreplicated store, issued from the
// store's own machine so the invocation around the eight upserts is a
// function call. Most ids overwrite; the table stops growing early on.
func BenchmarkObjTableUpsert(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	defer sys.Close()
	mp, err := core.NewMemoryProcletOn(sys, "store", 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := servingKeys()
	batch := core.Batch{Vals: make([]core.Value, 8), Sizes: make([]int64, 8)}
	for i := range batch.Vals {
		batch.Vals[i], batch.Sizes[i] = core.Int(int64(i)), 256
	}
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := -len(keys); i < b.N; i += 8 {
			if i == 0 {
				b.ResetTimer() // every key has been written once
			}
			at := (i + len(keys)) % len(keys)
			batch.IDs = keys[at : at+8]
			if err := mp.PutBatch(p, 0, &batch); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkMemScalarRoundTrip measures a scalar's round trip through a
// remote store: one PutInt and a one-object GetBatch of it from machine 0
// to a store on machine 1. Nothing is boxed on the way and nothing
// allocated.
func BenchmarkMemScalarRoundTrip(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	defer sys.Close()
	mp, err := core.NewMemoryProcletOn(sys, "store", 1)
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Spawn("client", func(p *sim.Proc) {
		var id [1]uint64
		var got core.Batch
		for i := -64; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer() // the pools have grown
			}
			id[0] = uint64(i & 1023)
			if err := mp.PutInt(p, 0, id[0], int64(i)<<20, 256); err != nil {
				b.Error(err)
				return
			}
			if err := mp.GetBatch(p, 0, id[:], &got); err != nil || len(got.Vals) != 1 || got.Vals[0] != core.Int(int64(i)<<20) {
				b.Errorf("GetBatch = %v, %v", got.Vals, err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkLedgerAck measures recording acknowledged writes in the durable
// ledger, per key, at a serving workload's skew: batches of 8 keys drawn
// Zipf(0.99) from 64k, so most acks repeat a key already recorded.
func BenchmarkLedgerAck(b *testing.B) {
	b.ReportAllocs()
	keys := servingKeys()
	led := fleet.NewLedger(make([]*core.MemoryProclet, 1), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		at := i % len(keys)
		led.Ack(0, keys[at:at+8]...)
	}
}

// BenchmarkRPCCall measures the raw fabric RPC path (no proclet layer):
// an inline fast handler versus a pooled-process blocking handler.
// Both variants should run allocation-free per call.
func BenchmarkRPCCall(b *testing.B) {
	bench := func(b *testing.B, fast bool) {
		b.ReportAllocs()
		k := sim.NewKernel(1)
		defer k.Close()
		f := simnet.New(k, simnet.DefaultConfig())
		f.AddNode(1)
		srv := f.AddNode(2)
		if fast {
			srv.HandleFast("echo", func(req simnet.Message) (simnet.Message, error) {
				return simnet.Message{Bytes: 128}, nil
			})
		} else {
			srv.Handle("echo", func(p *sim.Proc, req simnet.Message) (simnet.Message, error) {
				return simnet.Message{Bytes: 128}, nil
			})
		}
		b.ResetTimer()
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Call(p, 1, 2, "echo", simnet.Message{Bytes: 128}); err != nil {
					b.Error(err)
					return
				}
			}
		})
		k.Run()
	}
	b.Run("fast", func(b *testing.B) { bench(b, true) })
	b.Run("blocking", func(b *testing.B) { bench(b, false) })
}

// BenchmarkProcletMigration measures a 64 KiB proclet bouncing between
// machines, reporting the virtual migration latency alongside host
// cost.
func BenchmarkProcletMigration(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	pr, err := sys.Runtime.Spawn("migrant", 0, 64<<10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("ctl", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := sys.Runtime.Migrate(p, pr.ID(), cluster.MachineID(1-int(pr.Location()))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
	b.ReportMetric(sys.Runtime.MigrationLatency.Mean()*1e6, "virtual_us/mig")
}

// BenchmarkShardedMapPut measures sharded map writes including the
// amortized cost of splits.
func BenchmarkShardedMapPut(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	m, err := sharded.NewMap[int, int](sys, "bench", sharded.Options{MaxShardBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := m.Put(p, 0, i, i, 256); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
	b.ReportMetric(float64(m.NumShards()), "final_shards")
}

// BenchmarkShardedQueuePushPop measures the producer/consumer path
// through a sharded queue.
func BenchmarkShardedQueuePushPop(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	q, err := sharded.NewQueue[int](sys, "bench", sharded.Options{MaxShardBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := q.Push(p, 0, i, 256); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := q.Pop(p, 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}

// BenchmarkVectorIterPrefetch measures streaming a sharded vector with
// prefetch enabled.
func BenchmarkVectorIterPrefetch(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	v, err := sharded.NewVector[int](sys, "bench", sharded.Options{MaxShardBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Spawn("loader", func(p *sim.Proc) {
		for i := 0; i < 4096; i++ {
			v.PushBack(p, 1, i, 4<<10)
		}
	})
	sys.K.Run()
	b.ResetTimer()
	sys.K.Spawn("reader", func(p *sim.Proc) {
		done := 0
		for done < b.N {
			it := v.Iter(32)
			for done < b.N {
				_, ok, err := it.Next(p, 0)
				if err != nil {
					b.Error(err)
					return
				}
				if !ok {
					break
				}
				done++
			}
		}
	})
	sys.K.Run()
}

// ---- Extensions ----

// BenchmarkExtGPUFleet regenerates the GPU-fleet extension: gray
// failures and a clean reclaim survived against a fixed-work makespan.
func BenchmarkExtGPUFleet(b *testing.B) {
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		unmemoized()
		res, err := experiments.Run("ext-gpufleet", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Values["makespan_ratio"]
	}
	b.ReportMetric(ratio, "makespan_ratio")
}

// BenchmarkExtHarvest regenerates fleet-wide idle harvesting.
func BenchmarkExtHarvest(b *testing.B) {
	b.ReportAllocs()
	var pct float64
	for i := 0; i < b.N; i++ {
		unmemoized()
		res, err := experiments.Run("ext-harvest", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		pct = res.Values["quicksand.goodput_pct"]
	}
	b.ReportMetric(pct, "goodput_%ideal")
}

// BenchmarkExtServe regenerates the million-client open-loop serving
// scenario (aggregate arrival processes over a partitioned fleet).
func BenchmarkExtServe(b *testing.B) {
	b.ReportAllocs()
	var p999 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("ext-serve", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		p999 = res.Values["p999_ms"]
	}
	b.ReportMetric(p999, "p999_ms")
}

// ---- Load-plane micro-benchmarks ----

// BenchmarkZipfSample measures the O(1) Zipfian key sampler at the
// scenario library's pair (2²⁰ keys, theta 0.9: alpha 10), at
// ext-serve's 10M-key pair (theta 0.99: alpha 100), and at theta 0.3,
// whose alpha (1.43) has no integer power, so every draw pays math.Pow.
// The sample path must be allocation-free in each.
func BenchmarkZipfSample(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     uint64
		theta float64
	}{
		{"n=2^20,theta=0.9", 1 << 20, 0.9},
		{"n=1e7,theta=0.99", 10_000_000, 0.99},
		{"n=2^20,theta=0.3", 1 << 20, 0.3},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			z := load.NewZipf(c.n, c.theta)
			rng := rand.New(rand.NewSource(1))
			if allocs := testing.AllocsPerRun(1000, func() {
				_ = load.ScrambleKey(z.Sample(rng))
			}); allocs != 0 {
				b.Fatalf("zipf sample path allocates: %v allocs/op", allocs)
			}
			var sink uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += load.ScrambleKey(z.Sample(rng))
			}
			_ = sink
		})
	}
}

// zipfColdPairs numbers the pairs BenchmarkNewZipf/cold has used, across
// b.N ramps and -count reruns, so that none is asked for twice.
var zipfColdPairs int

// BenchmarkNewZipf measures sampler construction at the scenario
// library's default keyspace. cold asks for a pair the process has not
// seen (theta moves by 1e-9 per iteration), which is the full
// zetaExactMax-term summation; warm asks for one it has, which is a
// table lookup. Every run after a process's first pays warm.
func BenchmarkNewZipf(b *testing.B) {
	const keys = 1 << 20
	var sink *load.Zipf
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			zipfColdPairs++
			sink = load.NewZipf(keys, 0.9+1e-9*float64(zipfColdPairs))
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		load.NewZipf(keys, 0.9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = load.NewZipf(keys, 0.9)
		}
	})
	_ = sink
}

// BenchmarkScenarioShortRun measures one whole short run the way qsctl
// run and the scenario gates pay for it: read the file, parse, run at
// the committed seed on one worker, render the report. The fleet
// workloads amortise set-up over hundreds of simulated milliseconds;
// this is the 16 ms case where set-up is a line item.
func BenchmarkScenarioShortRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := os.ReadFile("scenarios/az-outage.yaml")
		if err != nil {
			b.Fatal(err)
		}
		sp, err := scenario.Parse(string(src))
		if err != nil {
			b.Fatal(err)
		}
		out, err := scenario.Run(sp, scenario.Options{Par: 1})
		if err != nil {
			b.Fatal(err)
		}
		out.WriteReport(io.Discard)
	}
}

// BenchmarkArrivalBatch measures drawing one 250us window of
// nonhomogeneous-Poisson arrivals at ~400k req/s from a diurnal curve —
// the injector's per-window generation step. Steady-state draws must be
// allocation-free: generation cost is O(requests), never O(clients).
func BenchmarkArrivalBatch(b *testing.B) {
	b.ReportAllocs()
	horizon := sim.Time(time.Hour)
	curve := load.Sampled(horizon, 250*time.Millisecond, load.Diurnal(400_000, 0.5, 10*time.Second))
	a := load.NewArrivals(curve, rand.New(rand.NewSource(1)))
	window := sim.Time(250 * time.Microsecond)
	from := sim.Time(0)
	for i := 0; i < 64; i++ { // warm the reusable buffer
		a.Draw(from, from+window)
		from += window
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Draw(from, from+window)
		from += window
	}); allocs != 0 {
		b.Fatalf("arrival batch allocates at steady state: %v allocs/op", allocs)
	}
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += len(a.Draw(from, from+window))
		from += window
		if from >= horizon {
			from = 0
		}
	}
	b.ReportMetric(float64(n)/float64(b.N), "arrivals/window")
}

// logEmitChunk bounds the log BenchmarkLogEmit appends to: a Log only
// grows, so b.N emits into one log would hold b.N events.
const logEmitChunk = 1 << 12

// logEmitEvent is a prebuilt event with a detail, taken from the log
// Emitf recorded it in.
var logEmitEvent = func() obs.Event {
	l := obs.NewLog()
	l.Emitf(1, obs.KindMigrate, "mem-1", 0, 1, "bytes=%d", 1024)
	e, _ := l.Latest(func(*obs.Event) bool { return true })
	return e
}()

// warmLog returns a log that already holds logEmitChunk events — a
// short scenario run's worth.
func warmLog() *obs.Log {
	l := obs.NewLog()
	for i := 0; i < logEmitChunk; i++ {
		l.Emit(logEmitEvent)
	}
	return l
}

// BenchmarkLogEmit measures appending a prebuilt control-plane event to
// a warm log. Emit is a bare store into the log's current chunk — no
// hook, no formatting, no copy of earlier events — so allocs/op is 0:
// the only allocation is a new chunk every 273 events.
func BenchmarkLogEmit(b *testing.B) {
	b.ReportAllocs()
	for done := 0; done < b.N; done += logEmitChunk {
		b.StopTimer()
		l := warmLog()
		b.StartTimer()
		for i := 0; i < min(logEmitChunk, b.N-done); i++ {
			l.Emit(logEmitEvent)
		}
	}
}

// TestLogEmitDoesNotAllocate is BenchmarkLogEmit's assertion: anything
// Emit does per event beyond the append (a hook, a formatted copy)
// shows up as at least one allocation per call. Emitf renders nothing
// and stores its arguments as words, so it allocates nothing either: a
// detail string, a boxed argument or a fmt call would each show.
func TestLogEmitDoesNotAllocate(t *testing.T) {
	l := warmLog()
	if allocs := testing.AllocsPerRun(1000, func() { l.Emit(logEmitEvent) }); allocs != 0 {
		t.Fatalf("Emit into a warm log allocates: %v allocs/op", allocs)
	}
	l = warmLog()
	heap, latency := int64(1<<20)+7, 1500*time.Microsecond+3
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Emitf(1, obs.KindMigrate, "mem-1", 0, 1, "bytes=%d latency=%v", heap, latency)
	}); allocs != 0 {
		t.Fatalf("Emitf of an int64 and a time.Duration into a warm log: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkLogHistogramRecord measures the fixed-bucket latency
// histogram's record path (one index computation, no allocation).
func BenchmarkLogHistogramRecord(b *testing.B) {
	b.ReportAllocs()
	h := metrics.NewLogHistogram("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i)*7919 + 1000)
	}
}

// BenchmarkGPUStep measures one training step (batch upload + kernel)
// through the GPU proclet path.
func BenchmarkGPUStep(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	m := sys.Cluster.Machine(0)
	m.AddGPUs(cluster.GPUConfig{Count: 1, MemBytes: 16 << 30, LinkBandwidth: 16_000_000_000})
	gp, err := gpu.New(sys, "trainer", m.GPU(0), 1<<30, 100*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := gp.Step(p, 0, 1<<20); err != nil {
				b.Error(err)
				return
			}
		}
	})
	sys.K.Run()
}
