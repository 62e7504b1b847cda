package scenario

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/load"
	"repro/internal/metrics"
	"repro/internal/replication"
	"repro/internal/sim"
)

// serveTape is a random serving run: a shard's stores and servers, the
// arrivals they drain, and what happens to the fleet meanwhile.
type serveTape struct {
	w        Workload
	first    int // the stores' first machine: 0 puts store 0 beside the servers
	arrivals []load.Request
	faults   []fault.Event
	migs     []serveMig
}

type serveMig struct {
	at        sim.Time
	store, to int
}

const (
	tapeMachines = 4
	tapeHorizon  = 3 * sim.Millisecond
	tapeEnd      = tapeHorizon + 12*sim.Millisecond
	tapeDeadline = int64(400 * time.Microsecond)
	tapeBucket   = time.Millisecond
	tapePoll     = 20 * time.Microsecond // a fleet shard's server poll
)

func newServeTape(seed int64) serveTape {
	rng := rand.New(rand.NewSource(seed))
	tp := serveTape{w: Workload{
		RF:          1 + int(seed%2),
		Stores:      2 + rng.Intn(2),
		Servers:     1 + rng.Intn(3),
		Objects:     32 + rng.Intn(64),
		ObjectBytes: int64(64 + rng.Intn(512)),
		WriteFrac:   []float64{0.1, 0.3, 0.5}[rng.Intn(3)],
		BatchMax:    1 + rng.Intn(8),
	}}
	if seed%4 < 2 {
		tp.first = 0
	} else {
		tp.first = 1
	}
	at := func(lo, hi float64) sim.Time {
		return sim.Time((lo + (hi-lo)*rng.Float64()) * float64(tapeHorizon))
	}
	for i, n := 0, 150+rng.Intn(250); i < n; i++ {
		tp.arrivals = append(tp.arrivals, load.Request{At: at(0, 1), Key: rng.Uint64()})
	}
	// A burst just before the horizon, so it passes with work queued.
	for i, n := 0, 20+rng.Intn(20); i < n; i++ {
		tp.arrivals = append(tp.arrivals, load.Request{At: at(0.97, 1), Key: rng.Uint64()})
	}
	m := func() cluster.MachineID { return cluster.MachineID(1 + rng.Intn(tapeMachines-1)) }
	if rng.Intn(3) > 0 {
		a := m()
		down := at(0.2, 0.7)
		tp.faults = append(tp.faults, fault.Event{At: down, Op: fault.OpCrash, A: a},
			fault.Event{At: down + sim.Time(300+rng.Intn(700))*sim.Microsecond, Op: fault.OpRestart, A: a})
	}
	if rng.Intn(3) > 0 {
		b := m()
		cut := at(0.1, 0.8)
		tp.faults = append(tp.faults, fault.Event{At: cut, Op: fault.OpPartition, A: 0, B: b},
			fault.Event{At: cut + sim.Time(100+rng.Intn(900))*sim.Microsecond, Op: fault.OpHeal, A: 0, B: b})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		tp.migs = append(tp.migs, serveMig{at: at(0.1, 0.9), store: rng.Intn(tp.w.Stores), to: rng.Intn(tapeMachines)})
	}
	return tp
}

// serveStamp is the kernel's state after one event, and the shard's
// serving counters.
type serveStamp struct {
	at                     sim.Time
	seq                    uint64
	pending, blocked, live int
	served, errs, acked    uint64
}

// serveRun is everything one run of a tape produced.
type serveRun struct {
	stamps   []serveStamp
	results  []string // one line per server exit, migration and the horizon
	served   []uint64 // served, timeouts, errs, acked
	hist     metrics.LogSnapshot
	good     metrics.BucketSeries
	ledger   [][]uint64
	trace    []string
	counters []int64
	nextRand int64
	after    [2]int // Blocked and Live at the end
	switches uint64
	// The servers' share of switches: counted by the reference loop, whose
	// servers park only in code the test owns; zero for the staged server.
	serverSwitches uint64
	cov            serveCoverage
}

// serveCoverage is what a staged run went through, for the test to
// require of its tapes.
type serveCoverage struct {
	active    int // servers with a batch in hand
	localRepl int // tapes with a replicated store on the servers' machine
	midBatch  int // faults and migrations that landed while a batch was in hand
	queued    int // tapes whose horizon passed with work not yet served
	crashes   int
	parts     int
	migrated  int
	failed    int // tapes with failed requests
	acked     int // tapes with acked writes
	multi     int // tapes with several servers on one queue
	replTapes int
}

// census is a load.Handler around a server that counts what it went
// through.
type census struct {
	load.Handler
	cov *serveCoverage
}

func (c census) Begin(b []load.Request) sim.Wait { c.cov.active++; return c.done(c.Handler.Begin(b)) }
func (c census) Step() sim.Wait                  { return c.done(c.Handler.Step()) }

func (c census) done(w sim.Wait) sim.Wait {
	if w == sim.Resume {
		c.cov.active--
	}
	return w
}

// runServeTape builds a four-machine shard, plays tp on it through the
// staged server (ref false) or the reference loop, and steps the kernel
// event by event to tapeEnd.
func runServeTape(t *testing.T, seed int64, tp serveTape, ref bool) serveRun {
	t.Helper()
	k := sim.NewKernel(seed)
	defer k.Close()
	mcs := make([]cluster.MachineConfig, tapeMachines)
	for i := range mcs {
		mcs[i] = cluster.MachineConfig{Cores: 4, MemBytes: 256 << 20}
	}
	sys := core.NewSystemOnKernel(k, core.DefaultConfig(), mcs)
	w := tp.w
	st := &shardState{
		Shard: &fleet.Shard{
			Tally: fleet.Tally{Hist: metrics.NewLogHistogram("lat"), Deadline: tapeDeadline, Horizon: tapeHorizon},
			Sys:   sys,
		},
		good: metrics.NewBucketSeries(tapeBucket, tapeEnd),
	}
	st.OnServe = st.countGood
	st.in = fault.New(k, sys.Cluster, sys.Trace)
	sys.AttachInjector(st.in)
	if w.RF >= 2 {
		st.rm = sys.EnableReplicationPlane(replication.Config{}, 0)
	}
	var err error
	if st.Stores, err = fleet.PlaceStores(sys, "store-%d", w.Stores, tp.first, w.RF); err != nil {
		t.Fatal(err)
	}
	st.Ledger = fleet.NewLedger(st.Stores, w.ObjectBytes)
	preload := fleet.Objects(w.Objects, w.ObjectBytes)
	k.Spawn("setup", func(p *sim.Proc) {
		if err := st.Ledger.Preload(p, preload); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	})

	var out serveRun
	cov := &out.cov
	var rq refQueue
	push := st.Queue.Push
	if ref {
		push = rq.Push
	}
	for _, r := range tp.arrivals {
		r := r
		k.Schedule(r.At, func() { push(r) })
	}
	for _, ev := range tp.faults {
		ev := ev
		k.Schedule(ev.At, func() {
			if cov.active > 0 {
				cov.midBatch++
			}
			st.in.Apply(ev)
		})
	}
	for i, m := range tp.migs {
		m := m
		k.Spawn(fmt.Sprintf("migrate-%d", i), func(p *sim.Proc) {
			p.SleepUntil(m.at)
			if cov.active > 0 {
				cov.midBatch++
			}
			err := sys.Runtime.Migrate(p, st.Stores[m.store].ID(), cluster.MachineID(m.to))
			if err == nil {
				cov.migrated++
			}
			out.results = append(out.results, fmt.Sprintf("%v pid %d migrate store %d to %d: %v", p.Now(), p.ID, m.store, m.to, err))
		})
	}
	for srv := 0; srv < w.Servers; srv++ {
		left := func(pid int64) {
			out.results = append(out.results, fmt.Sprintf("%v pid %d server %d left", k.Now(), pid, srv))
		}
		if !ref {
			var pid int64
			pid = st.Queue.Serve(k, nil, tapeHorizon, tapePoll, w.BatchMax,
				census{fleet.NewServer(st.Shard, w.Objects, w.BatchMax, w.WriteFrac), cov}, func() { left(pid) })
			continue
		}
		k.Spawn(fmt.Sprintf("server-%d", srv), func(p *sim.Proc) {
			out.serverSwitches++ // its start
			refServe(p, &rq, st, &w, tapeHorizon, tapeDeadline, &out.serverSwitches)
			left(p.ID)
		})
	}
	k.Schedule(tapeHorizon, func() {
		pushed := 0
		for _, r := range tp.arrivals {
			if r.At <= tapeHorizon {
				pushed++
			}
		}
		if st.Served < uint64(pushed) {
			cov.queued++
		}
		out.results = append(out.results, fmt.Sprintf("horizon: %d of %d served", st.Served, pushed))
	})
	end := false
	k.Schedule(tapeEnd, func() { end = true })

	for steps := 0; !end && k.Step(); steps++ {
		if steps > 2_000_000 {
			t.Fatalf("seed %d: no end after %d events", seed, steps)
		}
		out.stamps = append(out.stamps, serveStamp{k.Now(), k.ReserveSeq(), k.Pending(), k.Blocked(), k.Live(),
			st.Served, st.Errors, st.Acked})
	}
	out.after = [2]int{k.Blocked(), k.Live()}
	out.switches = k.Switches()
	out.nextRand = k.Rand().Int63()
	out.served = []uint64{st.Served, st.Timeouts, st.Errors, st.Acked}
	out.hist = st.Hist.Snapshot()
	out.good = st.good
	for i := range st.Stores {
		out.ledger = append(out.ledger, st.Ledger.Keys(i))
	}
	out.trace = sys.Trace.Lines()
	rt, f := sys.Runtime, sys.Cluster.Fabric
	out.counters = []int64{
		rt.Migrations.Value(), rt.DirectoryLookups.Value(), rt.LocalInvokes.Value(), rt.RemoteInvokes.Value(),
		rt.FastInvokes.Value(), rt.InvokeRetries.Value(), rt.InvokeTimeouts.Value(),
		f.Calls.Value(), f.FastCalls.Value(), f.Timeouts.Value(), f.Drops.Value(),
	}
	if st.in.Crashes.Value() > 0 {
		cov.crashes++
	}
	if st.in.Partitions.Value() > 0 {
		cov.parts++
	}
	if st.Errors > 0 {
		cov.failed++
	}
	if st.Acked > 0 {
		cov.acked++
	}
	if w.Servers > 1 {
		cov.multi++
	}
	if w.RF >= 2 {
		cov.replTapes++
		if tp.first == 0 {
			cov.localRepl++
		}
	}
	return out
}

// TestServerMatchesReferenceLoop: Queue.Serve over server — polls, batch
// pickups and every store call stepped from one Await stage — runs every
// random tape exactly as the loop it replaced (refserve_test.go), whose
// handler made each store call a blocking GetBatch or PutBatch on the
// server's process. Two identically built shards play the same tape, one
// through each; they must agree after every single event — clock,
// sequence counter, pending events, blocked and live processes, and the
// shard's served, failed and acked counts — and at the end on which
// process left or migrated when, the latency histogram's buckets, the
// goodput buckets, every store's ledger of acked keys, the control-plane
// log, the runtime and fabric counters and the kernel RNG's next draw.
//
// The tapes cover rf 1 and rf 2, with store 0 on the servers' machine on
// half of them, so a replicated write there is a local staged method that
// the server's stage steps; one to three servers sharing one queue; a
// machine crash and restart, a partition from the servers' machine and
// store migrations, landing while batches are in hand; and a burst of
// arrivals just before the horizon, which passes with work still queued.
// The test fails if any of these never happened across the seeds.
//
// No staged server may ever be switched in, rf 2 tapes included. The runs
// agree event for event, so every other process switches alike in both;
// the reference loop counts its own servers' switches, which leaves the
// staged servers' share.
//
// Hand mutations this fails on (each tried): server.Step ending an
// invocation that waits for Exec; a batch's latencies recorded when it is
// taken, not when its last call ends; a store's write issued before its
// read; settle acking a write whose call failed; Serve leaving at the
// horizon with work still queued; and Serve polling 1 ns late.
func TestServerMatchesReferenceLoop(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var cov serveCoverage
	events := 0
	for seed := int64(1); seed <= seeds; seed++ {
		tp := newServeTape(seed)
		want := runServeTape(t, seed, tp, true)
		got := runServeTape(t, seed, tp, false)
		for i := 0; i < min(len(got.stamps), len(want.stamps)); i++ {
			if got.stamps[i] != want.stamps[i] {
				t.Fatalf("seed %d: after event %d: staged server %+v, reference loop %+v", seed, i, got.stamps[i], want.stamps[i])
			}
		}
		if len(got.stamps) != len(want.stamps) {
			t.Fatalf("seed %d: the staged server ran %d events, the reference loop %d", seed, len(got.stamps), len(want.stamps))
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"results", got.results, want.results},
			{"served, timeouts, errors and acks", got.served, want.served},
			{"latency histogram", got.hist, want.hist},
			{"goodput buckets", got.good, want.good},
			{"ledgers", got.ledger, want.ledger},
			{"control-plane log", got.trace, want.trace},
			{"counters", got.counters, want.counters},
			{"next RNG draw", got.nextRand, want.nextRand},
			{"Blocked and Live at the end", got.after, want.after},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ\nstaged server:  %v\nreference loop: %v", seed, c.what, c.got, c.want)
			}
		}
		others := want.switches - want.serverSwitches
		if servers := got.switches - others; servers != 0 {
			t.Errorf("seed %d: %d staged servers switched %d times between them, want none; the reference loop's %d", seed, tp.w.Servers, servers, want.serverSwitches)
		}
		events += len(got.stamps)
		c := got.cov
		cov.localRepl += c.localRepl
		cov.midBatch += c.midBatch
		cov.queued += c.queued
		cov.crashes += c.crashes
		cov.parts += c.parts
		cov.migrated += c.migrated
		cov.failed += c.failed
		cov.acked += c.acked
		cov.multi += c.multi
		cov.replTapes += c.replTapes
	}
	t.Logf("%d events over %d seeds; coverage %+v", events, seeds, cov)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"replicated store on the servers' machine", cov.localRepl},
		{"fault or migration landing mid-batch", cov.midBatch},
		{"horizon passing with work queued", cov.queued},
		{"machine crash", cov.crashes},
		{"partition", cov.parts},
		{"successful migration", cov.migrated},
		{"failed request", cov.failed},
		{"acked write", cov.acked},
		{"tape with several servers on one queue", cov.multi},
		{"tape at rf 2", cov.replTapes},
	} {
		if c.n == 0 {
			t.Errorf("no tape had a %s", c.what)
		}
	}
}

// TestServingFleetNeverSwitchesAServer pins what the staged server is
// for: on an rf=1 shard whose stores are all remote and nothing fails, a
// server's process is never switched in — not at its start, its exit or
// any store call. The set-up process, which preloads with blocking
// PutBatches, accounts for every switch. The reference loop switches at
// its servers' starts and exits and once more per store call.
func TestServingFleetNeverSwitchesAServer(t *testing.T) {
	tp := newServeTape(2) // rf 1
	tp.w.Servers, tp.first, tp.faults, tp.migs = 3, 1, nil, nil
	got := runServeTape(t, 2, tp, false)
	want := uint64(1 + tp.w.Stores)
	if got.after[1] != 0 {
		t.Fatalf("%d processes still live at the end; every server should have left", got.after[1])
	}
	if got.switches != want {
		t.Errorf("%d process switches; want %d: the set-up's start and one per store it preloads, none for a server", got.switches, want)
	}
	ref := runServeTape(t, 2, tp, true)
	t.Logf("switches: staged %d, reference loop %d, for %d requests", got.switches, ref.switches, got.served[0])
}
