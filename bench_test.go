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

// BenchmarkFig1FillerMigration regenerates Figure 1: the filler
// application migrating across machines every 10 ms.
func BenchmarkFig1FillerMigration(b *testing.B) {
	b.ReportAllocs()
	var goodput float64
	for i := 0; i < b.N; i++ {
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
	t.Init(k, noop)
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
			data.HandleFast("get", func(arg proclet.Msg) (proclet.Msg, error) {
				return proclet.Msg{Word: arg.Word, Bytes: 64}, nil
			})
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

// BenchmarkSpawnAwaitTick measures the idle poll of a process that has
// not run yet: the same pop and push as an Await tick, with no worker
// behind it.
func BenchmarkSpawnAwaitTick(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	idle := func() sim.Wait { return sim.After(time.Microsecond) }
	k.SpawnAwait(func() string { return "poller" }, idle(), idle, func(p *sim.Proc) {})
	k.Step()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkPollFleet measures an idle tick in the shape serve-read gives
// it, which one poller on an empty queue cannot show: 125 calm reactors
// polling every 200us beside 64 future events that are in no order (and
// never come due here). The reactors share one lane, so a tick sifts
// through 65 heap entries, not 189.
func BenchmarkPollFleet(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	defer k.Close()
	calm := func() sim.Wait { return sim.After(200 * time.Microsecond) }
	for i := 0; i < 125; i++ {
		k.SpawnAwait(func() string { return "reactor" }, calm(), calm, func(p *sim.Proc) {})
	}
	for i := 0; i < 64; i++ {
		k.ScheduleTagged(sim.Time(1000*time.Hour)+sim.Time(k.Rand().Int63n(int64(time.Hour))), func(uint64) {}, 0)
	}
	k.RunUntil(sim.Millisecond) // every reactor past its start event and polling
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkLaneArrivals measures one 250us injector window at 400k req/s
// from two tenants, end to end: draw the arrivals, sample their keys,
// schedule each through its tenant's lane, deliver them all.
func BenchmarkLaneArrivals(b *testing.B) {
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

// fanout is a load.Handler that reads a batch from its stores the way a
// scenario server does: keys grouped by store, one GetBatch invocation
// per store in turn, each stepped from the server's Await stage.
type fanout struct {
	stores  []*core.MemoryProclet
	ids     [][]uint64
	got     core.Batch
	si      int
	inv     *proclet.Invocation
	batches int
	err     error
}

func (f *fanout) Begin(batch []load.Request) sim.Wait {
	for i := range f.ids {
		f.ids[i] = f.ids[i][:0]
	}
	for _, r := range batch {
		si := r.Key % uint64(len(f.stores))
		f.ids[si] = append(f.ids[si], r.Key/uint64(len(f.stores)))
	}
	f.si = 0
	return f.Step()
}

func (f *fanout) Step() sim.Wait {
	for {
		if inv := f.inv; inv != nil {
			if w := inv.Step(); w != sim.Resume {
				return w
			}
			f.inv = nil
			if _, err := inv.End(); err != nil && f.err == nil {
				f.err = err
			}
			f.si++
		}
		for f.si < len(f.ids) && len(f.ids[f.si]) == 0 {
			f.si++
		}
		if f.si == len(f.ids) {
			f.batches++
			return sim.Resume
		}
		f.inv = f.stores[f.si].StartGetBatch(0, f.ids[f.si], &f.got)
	}
}

func (f *fanout) NeedsProc() bool  { return false }
func (f *fanout) Exec(p *sim.Proc) { panic("a remote read never needs the server's process") }

// fanoutCycle builds a server on machine 0 over 16 stores of 64 objects on
// machine 1 and returns one cycle: 64 arrivals, four keys a store, served
// as one batch.
func fanoutCycle(tb testing.TB) (cycle func(), f *fanout, done func()) {
	sys := benchSystem()
	f = &fanout{ids: make([][]uint64, 16)}
	preload := &core.Batch{}
	for i := 0; i < 64; i++ {
		preload.IDs = append(preload.IDs, uint64(i))
		preload.Vals = append(preload.Vals, core.Int(int64(i)))
		preload.Sizes = append(preload.Sizes, 256)
	}
	for i := 0; i < 16; i++ {
		mp, err := core.NewMemoryProcletOn(sys, "store", 1)
		if err != nil {
			tb.Fatal(err)
		}
		f.stores = append(f.stores, mp)
	}
	var q load.Queue
	sys.K.Spawn("setup", func(p *sim.Proc) {
		for _, mp := range f.stores {
			if err := mp.PutBatch(p, 0, preload); err != nil {
				tb.Error(err)
			}
		}
		q.Serve(p, sim.Time(time.Hour), 20*time.Microsecond, 64, f)
	})
	key := uint64(0)
	cycle = func() {
		for i := 0; i < 64; i++ {
			q.Push(load.Request{At: sys.K.Now(), Key: key % (16 * 64)})
			key++
		}
		for n := f.batches; f.batches == n; {
			sys.K.Step()
		}
	}
	return cycle, f, sys.Close
}

// BenchmarkServeFanout measures one serving batch end to end the way the
// serving workloads run it: 64 arrivals taken off a load.Queue as one
// batch and read from 16 remote stores, one GetBatch invocation after
// another, every step of it an Await stage of the server's process. The
// process is never switched in, and nothing is allocated.
func BenchmarkServeFanout(b *testing.B) {
	b.ReportAllocs()
	cycle, f, done := fanoutCycle(b)
	defer done()
	for i := 0; i < 16; i++ {
		cycle() // the pools and the buffers have grown
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	if f.err != nil {
		b.Fatal(f.err)
	}
}

// TestServeFanoutAllocatesNothing: BenchmarkServeFanout's batch allocates
// nothing at steady state.
func TestServeFanoutAllocatesNothing(t *testing.T) {
	cycle, f, done := fanoutCycle(t)
	defer done()
	for i := 0; i < 16; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a 16-store fan-out batch allocates %v objects, want 0", a)
	}
	if f.err != nil {
		t.Fatal(f.err)
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

// BenchmarkMemPutGetInt measures a scalar's round trip through a remote
// store: one PutInt and one GetInt of the same object from machine 0 to a
// store on machine 1. Nothing is boxed on the way and nothing allocated.
func BenchmarkMemPutGetInt(b *testing.B) {
	b.ReportAllocs()
	sys := benchSystem()
	defer sys.Close()
	mp, err := core.NewMemoryProcletOn(sys, "store", 1)
	if err != nil {
		b.Fatal(err)
	}
	sys.K.Spawn("client", func(p *sim.Proc) {
		for i := -64; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer() // the pools have grown
			}
			id := uint64(i & 1023)
			if err := mp.PutInt(p, 0, id, int64(i)<<20, 256); err != nil {
				b.Error(err)
				return
			}
			if v, ok, err := mp.GetInt(p, 0, id); err != nil || !ok || v != int64(i)<<20 {
				b.Errorf("GetInt = %d, %v, %v", v, ok, err)
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
	led := fleet.NewLedger(make([]*core.MemoryProclet, 1), 256, func(uint64) int64 { return 0 })
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

// BenchmarkExtGPUReclaim regenerates the GPU-proclet extension: spot
// reclamations survived by device-state migration.
func BenchmarkExtGPUReclaim(b *testing.B) {
	b.ReportAllocs()
	var pct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("ext-gpu", experiments.TestScale)
		if err != nil {
			b.Fatal(err)
		}
		pct = res.Values["gpu-proclets.ideal_pct"]
	}
	b.ReportMetric(pct, "ideal_%")
}

// BenchmarkExtHarvest regenerates fleet-wide idle harvesting.
func BenchmarkExtHarvest(b *testing.B) {
	b.ReportAllocs()
	var pct float64
	for i := 0; i < b.N; i++ {
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

// BenchmarkZipfSample measures the O(1) Zipfian key sampler over a
// 10M-key space. The sample path must be allocation-free: skewed key
// popularity costs a handful of float ops per request regardless of
// keyspace size.
func BenchmarkZipfSample(b *testing.B) {
	b.ReportAllocs()
	z := load.NewZipf(10_000_000, 0.99)
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

var logEmitEvent = obs.Event{At: 1, Kind: obs.KindMigrate, Subject: "mem-1", From: 0, To: 1, Detail: "bytes=1024"}

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
// a warm log. Emit is a bare append — no hook, no formatting — so
// allocs/op is 0: the only allocation is the backing array's growth,
// a few per chunk. That growth (copying, and collecting, a 72-byte-
// per-event array) is most of ns/op.
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
// shows up as at least one allocation per call.
func TestLogEmitDoesNotAllocate(t *testing.T) {
	l := warmLog()
	if allocs := testing.AllocsPerRun(1000, func() { l.Emit(logEmitEvent) }); allocs != 0 {
		t.Fatalf("Emit into a warm log allocates: %v allocs/op", allocs)
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
