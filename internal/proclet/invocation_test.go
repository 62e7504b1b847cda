package proclet

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// invokeFn is one way to run an invocation to its end on a process: Invoke
// (limit 0) or BeginLimited (limit > 0) and Await, or refInvoke, the loop
// they replace.
type invokeFn func(rt *Runtime, p *sim.Proc, fromMachine cluster.MachineID, from, target ID, method string, arg Msg, limit int) (Msg, error)

func stagedInvoke(rt *Runtime, p *sim.Proc, fromMachine cluster.MachineID, from, target ID, method string, arg Msg, limit int) (Msg, error) {
	if limit == 0 {
		return rt.Invoke(p, fromMachine, from, target, method, arg)
	}
	return rt.BeginLimited(fromMachine, from, target, method, arg, limit).Await(p)
}

// waitThen is a staged method's run that waits d and then serves.
type waitThen struct {
	d      time.Duration
	then   func() (Msg, error)
	waited bool
	res    Msg
	err    error
}

func (w *waitThen) Step() sim.Wait {
	if !w.waited {
		w.waited = true
		return sim.After(w.d)
	}
	w.res, w.err = w.then()
	return sim.Resume
}

func (w *waitThen) End() (Msg, error) { return w.res, w.err }

// tapeOp is one entry of a random invocation tape: at instant at, kind
// does something to proclet pi (an index into the tape's proclets; one
// past the end names an id nobody spawned) or machines m and m2.
type tapeOp struct {
	at     time.Duration
	kind   int
	pi     int
	m, m2  cluster.MachineID
	method string
	word   uint64
	limit  int
	d      time.Duration
}

const (
	opInvoke = iota
	opBurst
	opMigrate
	opMigrateLazy
	opNodeDown
	opPartition
	opDrop
	opRefuse
	opDestroy
	numOps
)

// tape is a random program for runTape: the proclets' homes and heaps, the
// fabric's call deadline, and the operations.
type tape struct {
	homes   []cluster.MachineID
	heaps   []int64
	timeout time.Duration
	traced  bool
	ops     []tapeOp
}

const tapeMachines = 4

func newTape(seed int64) tape {
	rng := rand.New(rand.NewSource(seed))
	tp := tape{traced: seed%2 == 1}
	if seed%4 != 0 { // a quarter of the tapes run without deadlines
		tp.timeout = time.Duration(60+rng.Intn(200)) * time.Microsecond
	}
	for i := 0; i < 6; i++ {
		tp.homes = append(tp.homes, cluster.MachineID(rng.Intn(tapeMachines)))
		tp.heaps = append(tp.heaps, int64(4096+rng.Intn(256<<10)))
	}
	methods := []string{"fast", "fast", "block", "fb", "flaky", "relay", "nosuch"}
	destroyed := false
	for i := 0; i < 48; i++ {
		op := tapeOp{
			at:     time.Duration(rng.Intn(3000)) * time.Microsecond,
			kind:   rng.Intn(numOps),
			pi:     rng.Intn(len(tp.homes) + 1),
			m:      cluster.MachineID(rng.Intn(tapeMachines)),
			m2:     cluster.MachineID(rng.Intn(tapeMachines)),
			method: methods[rng.Intn(len(methods))],
			word:   uint64(rng.Intn(100)),
			limit:  []int{0, 0, 0, 1, 2, 3}[rng.Intn(6)],
			d:      time.Duration(50+rng.Intn(600)) * time.Microsecond,
		}
		if op.kind >= opMigrate && op.pi == len(tp.homes) {
			op.pi = 0
		}
		if op.kind == opDestroy {
			if destroyed {
				op.kind = opInvoke
			}
			destroyed = true
		}
		tp.ops = append(tp.ops, op)
	}
	return tp
}

// stamp is the kernel's state after one event: the clock, its sequence
// counter (read by reserving the next number, which both runs do after
// every event), and the counts of pending events and blocked and live
// processes.
type stamp struct {
	at                     sim.Time
	seq                    uint64
	pending, blocked, live int
}

// tapeRun is everything one run of a tape produced.
type tapeRun struct {
	stamps   []stamp
	results  []string // one line per invocation and per operation that reports, in the order they ended
	counters []int64
	trace    []string
	spans    []obs.Span
	nextRand int64
	after    [2]int // Blocked and Live once the queue drained
}

// runTape builds a four-machine runtime, plays tp on it with invoke, and
// steps the kernel event by event until nothing is pending.
func runTape(t *testing.T, seed int64, tp tape, invoke invokeFn) tapeRun {
	t.Helper()
	k := sim.NewKernel(seed)
	c := cluster.New(k, simnet.Config{
		Latency:          5 * time.Microsecond,
		Bandwidth:        1_000_000_000,
		RPCOverhead:      time.Microsecond,
		MsgOverheadBytes: 64,
		CallTimeout:      tp.timeout,
	})
	for i := 0; i < tapeMachines; i++ {
		c.AddMachine(cluster.MachineConfig{Cores: 4, MemBytes: 1 << 30})
	}
	rt := NewRuntime(c, obs.NewLog())
	var tr *obs.Tracer
	if tp.traced {
		tr = obs.NewTracer(k)
		c.Fabric.SetTracer(tr)
		rt.SetTracer(tr)
	}
	var out tapeRun
	report := func(pid int64, what string, res Msg, err error) {
		out.results = append(out.results, fmt.Sprintf("%v pid %d %s: word=%d bytes=%d err=%v",
			k.Now(), pid, what, res.Word, res.Bytes, err))
	}

	prs := make([]*Proclet, len(tp.homes))
	ids := make([]ID, len(tp.homes)+1)
	refusals := make([]int, len(tp.homes))
	ids[len(tp.homes)] = 999
	for i, m := range tp.homes {
		i := i
		pr, err := rt.Spawn(fmt.Sprintf("p%d", i), m, tp.heaps[i])
		if err != nil {
			t.Fatal(err)
		}
		prs[i], ids[i] = pr, pr.ID()
		// The fast and staged methods are a table of the proclet's own;
		// the blocking ones join a copy of it.
		var m Methods
		m.HandleFast("fast", func(_ *Proclet, arg Msg) (Msg, error) {
			return Msg{Word: arg.Word + 1, Bytes: 16}, nil
		})
		// Odd words decline the fast registration to a staged one.
		m.HandleStaged("fb", func(_ *Proclet, arg Msg) (Msg, error) {
			if arg.Word%2 == 1 {
				return Msg{}, simnet.ErrWouldBlock
			}
			return Msg{Word: arg.Word + 3}, nil
		}, func(_ *Proclet, arg Msg) Staged {
			return &waitThen{d: 10 * time.Microsecond, then: func() (Msg, error) {
				return Msg{Word: arg.Word + 4, Bytes: 8}, nil
			}}
		})
		// Refuses while it owes refusals: inline for even words, after a
		// staged 5 µs for odd ones.
		refuse := func(arg Msg) (Msg, error) {
			if refusals[i] > 0 {
				refusals[i]--
				return Msg{}, fmt.Errorf("%w: p%d", ErrUnavailable, i)
			}
			return Msg{Word: arg.Word + 5}, nil
		}
		m.HandleStaged("flaky", func(_ *Proclet, arg Msg) (Msg, error) {
			if arg.Word%2 == 1 {
				return Msg{}, simnet.ErrWouldBlock
			}
			return refuse(arg)
		}, func(_ *Proclet, arg Msg) Staged {
			return &waitThen{d: 5 * time.Microsecond, then: func() (Msg, error) { return refuse(arg) }}
		})
		pr.UseMethods(&m)
		pr.Handle("block", func(ctx *Ctx, arg Msg) (Msg, error) {
			ctx.Proc.Sleep(time.Duration(arg.Word) * time.Microsecond)
			return Msg{Word: arg.Word + 2, Bytes: 32}, nil
		})
		// A nested invocation from the method's own process.
		pr.Handle("relay", func(ctx *Ctx, arg Msg) (Msg, error) {
			next := ids[(i+1)%len(tp.homes)]
			return invoke(rt, ctx.Proc, ctx.Self.Location(), ctx.Self.ID(), next, "fast", arg, 2)
		})
	}

	for n, op := range tp.ops {
		op := op
		name := fmt.Sprintf("op%d", n)
		k.After(op.at, func() {
			switch op.kind {
			case opInvoke, opBurst:
				calls := 1
				if op.kind == opBurst {
					calls = 5
				}
				k.Spawn(name, func(p *sim.Proc) {
					for j := 0; j < calls; j++ {
						res, err := invoke(rt, p, op.m, 0, ids[op.pi], op.method, Msg{Word: op.word + uint64(j), Bytes: int64(op.word) * 10}, op.limit)
						report(p.ID, fmt.Sprintf("%s %s(%d) from %d", name, op.method, ids[op.pi], op.m), res, err)
					}
				})
			case opMigrate, opMigrateLazy:
				k.Spawn(name, func(p *sim.Proc) {
					var err error
					if op.kind == opMigrate {
						err = rt.Migrate(p, ids[op.pi], op.m)
					} else {
						err = rt.MigrateLazy(p, ids[op.pi], op.m)
					}
					report(p.ID, fmt.Sprintf("%s migrate %d to %d lazy=%v", name, ids[op.pi], op.m, op.kind == opMigrateLazy), Msg{}, err)
				})
			case opNodeDown:
				c.Node(op.m).SetDown(true)
				k.After(op.d, func() { c.Node(op.m).SetDown(false) })
			case opPartition, opDrop:
				if op.m == op.m2 {
					return
				}
				lf := simnet.LinkFault{Partitioned: true}
				if op.kind == opDrop {
					lf = simnet.LinkFault{DropProb: 0.3}
				}
				c.Fabric.SetLinkFault(simnet.NodeID(op.m), simnet.NodeID(op.m2), lf)
				k.After(op.d, func() { c.Fabric.ClearLinkFault(simnet.NodeID(op.m), simnet.NodeID(op.m2)) })
			case opRefuse:
				refusals[op.pi] += int(op.word % 8)
			case opDestroy:
				report(0, fmt.Sprintf("%s destroy %d", name, ids[op.pi]), Msg{}, rt.Destroy(ids[op.pi]))
			}
		})
	}

	for steps := 0; k.Step(); steps++ {
		if steps > 1_000_000 {
			t.Fatalf("seed %d: the tape has not drained after %d events", seed, steps)
		}
		out.stamps = append(out.stamps, stamp{k.Now(), k.ReserveSeq(), k.Pending(), k.Blocked(), k.Live()})
	}
	out.after = [2]int{k.Blocked(), k.Live()}
	out.nextRand = k.Rand().Int63()
	f := c.Fabric
	out.counters = []int64{
		rt.Migrations.Value(), rt.DirectoryLookups.Value(), rt.LocalInvokes.Value(), rt.RemoteInvokes.Value(),
		rt.LazyPenalties.Value(), rt.FastInvokes.Value(), rt.InvokeRetries.Value(), rt.InvokeTimeouts.Value(),
		f.Calls.Value(), f.FastCalls.Value(), f.Timeouts.Value(), f.Drops.Value(),
	}
	for _, pr := range prs {
		out.counters = append(out.counters, pr.Invocations())
	}
	out.trace = rt.Trace.Lines()
	if tr != nil {
		out.spans = tr.SpansByID()
	}
	k.Close()
	return out
}

// TestInvocationMatchesReferenceLoop: Invoke, an Invocation stepped by one
// Await, runs every random tape exactly as the Sleep-and-Wait loop it
// replaces (refloop_test.go) does. Two identically built runtimes play the
// same tape, one through each; they must agree after every single event —
// clock, sequence counter, pending events, blocked and live processes —
// and on every invocation's reply or error text and the process and
// instant it came back to, every runtime and fabric counter, the control-
// plane log, the spans on traced tapes, and the kernel RNG's next draw.
//
// The tapes cover cache misses and ErrMoved chases after migrations; local
// fast and blocking methods and a fast registration declining to a
// staged one; the same remotely; targets migrating across a call, pre-
// and post-copy with the lazy penalty; nodes going down and up mid-call;
// partitions and lossy links, with and without deadlines; ErrUnavailable
// backoffs from inline and staged methods; retries exhausted; a destroyed
// target; nested invocations; and back-to-back calls that reuse pooled
// Invocations. The test fails if any of these never happened across the
// seeds.
//
// Hand mutations this fails on (each tried): the migrating branch not
// counting an attempt (next), backoff not dropping the cached location, the
// post-copy penalty charged as nothing, Exec leaving the phase at invExec,
// the invocation span not handed to StartCall as the call's parent, and
// Call.Stage returning Resume for a call that is not done.
func TestInvocationMatchesReferenceLoop(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	var seen tapeRun // counters and results summed over the seeds, from the staged runs
	for seed := int64(1); seed <= seeds; seed++ {
		tp := newTape(seed)
		want := runTape(t, seed, tp, refInvoke)
		got := runTape(t, seed, tp, stagedInvoke)
		for i := 0; i < min(len(got.stamps), len(want.stamps)); i++ {
			if got.stamps[i] != want.stamps[i] {
				t.Fatalf("seed %d: after event %d: Invoke %+v, reference loop %+v", seed, i, got.stamps[i], want.stamps[i])
			}
		}
		if len(got.stamps) != len(want.stamps) {
			t.Fatalf("seed %d: Invoke ran %d events, the reference loop %d", seed, len(got.stamps), len(want.stamps))
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"results", got.results, want.results},
			{"counters", got.counters, want.counters},
			{"control-plane log", got.trace, want.trace},
			{"spans", got.spans, want.spans},
			{"next RNG draw", got.nextRand, want.nextRand},
			{"Blocked and Live after the run", got.after, want.after},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("seed %d: %s differ\nInvoke:         %v\nreference loop: %v", seed, c.what, c.got, c.want)
			}
		}
		if seen.counters == nil {
			seen.counters = make([]int64, len(got.counters))
		}
		for i, v := range got.counters {
			seen.counters[i] += v
		}
		seen.results = append(seen.results, got.results...)
		seen.spans = append(seen.spans, got.spans...)
	}

	for i, name := range []string{"migrations", "directory lookups", "local invocations", "remote invocations",
		"lazy penalties", "fast invocations", "retries", "invocation timeouts", "", "", "", "dropped messages"} {
		if name != "" && seen.counters[i] == 0 {
			t.Errorf("no tape had any %s", name)
		}
	}
	all := strings.Join(seen.results, "\n")
	for _, want := range []string{
		ErrRetries.Error() + ": target", "(last: " + ErrUnavailable.Error(), "(last: " + simnet.ErrTimeout.Error(),
		"(last: " + simnet.ErrNodeDown.Error(), ErrNotFound.Error(), ErrNoMethod.Error(), "lazy=true: word=0 bytes=0 err=<nil>",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no tape had an invocation or migration ending in %q", want)
		}
	}
	if len(seen.spans) == 0 {
		t.Error("no tape was traced")
	}
}

// TestAbandonedHandlerKeepsItsRequest: a remote handler that outlives its
// caller serves the request it was sent, not whatever the caller's
// recycled envelope holds by the time it wakes. The caller here times out
// on a proclet that is mid-migration, so the handler waits out the
// migration; by its commit the same client is busy with a stream of
// invocations of another proclet on that machine, and a handler that
// re-read the caller's envelope ran one of them a second time. The
// migrating proclet's method is blocking, so a blocking handler waits, or
// staged, so the staged handler does.
func TestAbandonedHandlerKeepsItsRequest(t *testing.T) {
	for _, staged := range []bool{false, true} {
		abandonHandler(t, staged)
	}
}

func abandonHandler(t *testing.T, staged bool) {
	k := sim.NewKernel(1)
	// A 1 TB/s fabric leaves the move's NIC time negligible, so the
	// 160 MiB heap's pinning (migrationPerMiB a MiB) freezes it for
	// about 5ms, well past the 1ms call timeout, without holding up
	// the worker's replies.
	c := cluster.New(k, simnet.Config{Latency: 10 * time.Microsecond, Bandwidth: 1_000_000_000_000,
		CallTimeout: time.Millisecond})
	for i := 0; i < 3; i++ {
		c.AddMachine(cluster.MachineConfig{Cores: 8, MemBytes: 1 << 30})
	}
	rt := NewRuntime(c, obs.NewLog())
	moving, err := rt.Spawn("moving", 1, 160<<20)
	if err != nil {
		t.Fatal(err)
	}
	if staged {
		var m Methods
		m.HandleStaged("ping", nil, func(*Proclet, Msg) Staged {
			return &waitThen{then: func() (Msg, error) { return Msg{}, nil }}
		})
		moving.UseMethods(&m)
	} else {
		moving.Handle("ping", func(*Ctx, Msg) (Msg, error) { return Msg{}, nil })
	}
	worker, err := rt.Spawn("worker", 1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	worker.Handle("work", func(ctx *Ctx, _ Msg) (Msg, error) {
		runs++
		ctx.Proc.Sleep(100 * time.Microsecond)
		return Msg{}, nil
	})
	k.Spawn("mover", func(p *sim.Proc) {
		if err := rt.Migrate(p, moving.ID(), 2); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := rt.BeginLimited(0, 0, moving.ID(), "ping", Msg{}, 1).Await(p); !errors.Is(err, simnet.ErrTimeout) {
			t.Errorf("the call to the migrating proclet ended with %v, want a timeout", err)
		}
		for i := 0; i < 200; i++ {
			if _, err := rt.Invoke(p, 0, 0, worker.ID(), "work", Msg{}); err != nil {
				t.Errorf("work %d: %v", i, err)
			}
		}
	})
	k.Run()
	k.Close()
	if runs != 200 {
		t.Errorf("staged ping %v: the method ran %d times for 200 invocations", staged, runs)
	}
	if moving.Invocations() != 0 {
		t.Errorf("staged ping %v: the migrated proclet served %d invocations; the abandoned handler should have found it gone", staged, moving.Invocations())
	}
}
