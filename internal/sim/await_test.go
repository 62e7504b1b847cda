package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// awaitLoop is the law Await keeps, run on the process's own goroutine:
// every wait a Sleep or a Cond.Wait, every stage a plain call.
func awaitLoop(p *Proc, w Wait, stage func() Wait) {
	for w != Resume {
		if w.c != nil {
			w.c.Wait(p)
		} else {
			p.Sleep(w.d)
		}
		w = stage()
	}
}

// awaitImpl is one way for the random program to run its Awaits and to
// spawn its daemons, the processes that start by waiting. A polled
// implementation spawns through SpawnPollers the daemons that start by
// waiting out a period, so they wait without a worker; the others it
// spawns as SpawnLazy does.
type awaitImpl struct {
	await  func(p *Proc, w Wait, stage func() Wait)
	spawn  func(k *Kernel, nameFn func() string, w Wait, stage func() Wait, fn func(p *Proc)) int64
	polled bool
}

// spawnLazyThen spawns a daemon by SpawnLazy with the wait as the body's
// first statement, and returns its PID.
func spawnLazyThen(await func(*Proc, Wait, func() Wait)) func(*Kernel, func() string, Wait, func() Wait, func(*Proc)) int64 {
	return func(k *Kernel, nameFn func() string, w Wait, stage func() Wait, fn func(p *Proc)) int64 {
		return k.SpawnLazy(nameFn, func(p *Proc) { await(p, w, stage); fn(p) }).ID
	}
}

// spawnPolled spawns a daemon that starts by waiting out a period d as a
// group of one SpawnPollers member polling at d, whose predicate is the
// stage: the mix's daemon stages return After(d) or Resume. Any other
// daemon it spawns as spawnLazyThen does.
func spawnPolled(k *Kernel, nameFn func() string, w Wait, stage func() Wait, fn func(p *Proc)) int64 {
	if w.c != nil || w.d <= 0 {
		return spawnLazyThen((*Proc).Await)(k, nameFn, w, stage, fn)
	}
	return k.SpawnPollers(1, w.d, func(int) string { return nameFn() },
		func(int) bool { return stage() == Resume }, func(p *Proc, _ int) { fn(p) })
}

var (
	byLoop    = awaitImpl{awaitLoop, spawnLazyThen(awaitLoop), false}
	byAwait   = awaitImpl{(*Proc).Await, spawnLazyThen((*Proc).Await), false}
	byPollers = awaitImpl{(*Proc).Await, spawnPolled, true}
)

// awaitMixRun is what one run of the random program produced.
type awaitMixRun struct {
	log    []eventStamp // every event executed
	counts [][2]int     // Blocked(), Live() after every event
	done   []string     // what the processes got through, in order
	pids   []int64      // the daemons'
	closed [4]int       // Live, Blocked, Pending and bodies unwound, after Close

	quietStarted int    // daemon bodies entered in the quiet phase
	quietWorkers uint64 // WorkersCreated at the end of the quiet phase
	lazy         int    // daemons a polled implementation spawned as SpawnLazy does
	workers      uint64 // WorkersCreated before Close

	waits   [3]int // what the stages returned: After, On, Resume
	reparks int    // stages run in a Cond's wake that named another wait
}

// count wraps stage to tally what it returns; *in must hold the wait the
// process is in, and count keeps it up to date.
func (out *awaitMixRun) count(in *Wait, stage func() Wait) func() Wait {
	return func() Wait {
		w := stage()
		switch {
		case w == Resume:
			out.waits[2]++
		case w.c != nil:
			out.waits[1]++
		default:
			out.waits[0]++
		}
		if in.c != nil && w != Resume {
			out.reparks++
		}
		*in = w
		return w
	}
}

// awaitShapes picks which of runAwaitMix's staged populations besides the
// daemons run.
type awaitShapes uint8

const (
	withWorkers awaitShapes = 1 << iota
	withCallers
	withTapers
	allShapes = withWorkers | withCallers | withTapers
)

// runAwaitMix builds a random program from seed and runs it with impl,
// checking nothing itself: the tests compare what it recorded. Its tapes
// cover every shape a stage takes in the tree and a few it does not:
//
//   - daemons (the reactors) that start by waiting — out a period, on a
//     Cond, or not at all — and re-check a flag until something raises
//     it, then run a body of work and waits; one may poll at period 0,
//     through the same-instant FIFO. They alone exist in a quiet opening
//     phase, so the workers created in it are theirs.
//   - workers (the compute worker loop) that share one queue and one Cond,
//     so several park on one Cond and the wake order shows; a stage takes
//     an item, starts work whose completion signals it — on the spot,
//     later at this instant, later still, or from a spawned process — and
//     parks on the work, the queue, or a back-off delay.
//   - callers (an RPC) whose stage starts work after a delay and waits.
//   - tapers whose every stage draws its next step: a delay, a Cond with
//     a signal scheduled or spawned for it, waking others first, or the
//     end of the tape.
//
// Sleepers, timed callbacks, ping-pong pairs and a periodic broadcaster
// run among them. The run ends in Close, with processes mid-wait. shapes
// leaves out workers, callers or tapers; the daemons always run.
func runAwaitMix(seed int64, shapes awaitShapes, impl awaitImpl) awaitMixRun {
	k := NewKernel(seed)
	rng := rand.New(rand.NewSource(seed))
	// some draws n processes of shape s: none if shapes leave s out.
	some := func(s awaitShapes, n int) int {
		if shapes&s == 0 {
			return 0
		}
		return n
	}
	var out awaitMixRun
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	drive := func(horizon Time) {
		for {
			st, ok := k.peek()
			if !ok || st.at > horizon {
				return
			}
			k.Step()
			out.log = append(out.log, st)
			out.counts = append(out.counts, [2]int{k.Blocked(), k.Live()})
		}
	}
	unwound := 0
	// startWork starts a piece of work that calls finish when it is done.
	startWork := func(finish func()) {
		switch k.Rand().Intn(4) {
		case 0:
			finish() // on the spot: nothing to wait for
		case 1:
			k.Schedule(k.Now(), finish) // behind the stage, at this instant
		case 2:
			k.After(us(1+k.Rand().Intn(20)), finish)
		default:
			k.Spawn("helper", func(hp *Proc) {
				hp.Sleep(us(k.Rand().Intn(10)))
				finish()
			})
		}
	}

	nDaemons := 2 + rng.Intn(5)
	flags := make([]int, nDaemons)
	wakes := make([]Cond, nDaemons)
	periods := []time.Duration{us(3), us(5), us(7), us(20)}
	spin := rng.Intn(2) == 0
	quiet := true
	for i := 0; i < nDaemons; i++ {
		d := periods[rng.Intn(len(periods))]
		period, first := d, After(d)
		switch {
		case i == 0 && spin:
			period, first = 0, After(0)
		case rng.Intn(4) == 0:
			first = On(&wakes[i])
		case rng.Intn(6) == 0:
			first = Resume
		}
		rounds := rng.Intn(4)
		in := first
		idle := out.count(&in, func() Wait {
			if flags[i] == 0 {
				return After(period)
			}
			return Resume
		})
		if impl.polled && (first.c != nil || first.d <= 0) {
			out.lazy++
		}
		pid := impl.spawn(k, func() string { return fmt.Sprintf("daemon-%d", i) }, first, idle, func(p *Proc) {
			defer func() { unwound++ }()
			if quiet {
				out.quietStarted++
			}
			period = d
			for r := 0; ; r++ {
				out.done = append(out.done, fmt.Sprintf("daemon %d ran at %v", i, p.Now()))
				flags[i] = 0
				p.Sleep(us(k.Rand().Intn(30)))
				if k.Rand().Intn(2) == 0 {
					flags[k.Rand().Intn(nDaemons)]++
				}
				if r == rounds {
					return
				}
				in = After(d)
				impl.await(p, in, idle)
			}
		})
		out.pids = append(out.pids, pid)
	}
	if spin { // released at instant 0, behind a few spins
		k.Schedule(0, func() { k.Schedule(0, func() { flags[0]++ }) })
	}
	drive(2 * Microsecond) // shorter than any period and any daemon's first Sleep
	quiet = false
	out.quietWorkers = k.WorkersCreated()

	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for r := 0; r < 12; r++ {
				p.Sleep(us(1 + k.Rand().Intn(40)))
				flags[k.Rand().Intn(nDaemons)]++
			}
		})
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		target := rng.Intn(nDaemons)
		k.After(us(rng.Intn(400)), func() { flags[target]++ })
	}
	for i := range wakes {
		if rng.Intn(3) > 0 { // else a daemon waiting On it stays without a worker until Close
			k.After(us(rng.Intn(300)), wakes[i].Signal)
		}
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		spawnPingPong(k)
	}

	var queue []int
	var qCond Cond
	push := func(item int) {
		queue = append(queue, item)
		qCond.Signal()
	}
	nWorkers := some(withWorkers, 2+rng.Intn(4)) // 0: the feeder feeds nothing
	for i := 0; i < nWorkers; i++ {
		rounds, perRound := 1+rng.Intn(3), 1+rng.Intn(5)
		k.Spawn(fmt.Sprintf("worker-%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			var doneCond Cond
			item, busy, done, taken := 0, false, false, 0
			finish := func() { done = true; doneCond.Signal() }
			var in Wait
			stage := out.count(&in, func() Wait {
				for {
					if busy {
						if !done {
							return On(&doneCond)
						}
						busy = false
						out.done = append(out.done, fmt.Sprintf("worker %d finished item %d at %v", i, item, k.Now()))
						if k.Rand().Intn(3) == 0 {
							push(item + 1000)
						}
					}
					if taken == perRound {
						return Resume
					}
					if len(queue) == 0 {
						if k.Rand().Intn(4) == 0 {
							return After(us(k.Rand().Intn(4))) // back off instead
						}
						return On(&qCond)
					}
					item, queue = queue[0], queue[1:]
					taken++
					busy, done = true, false
					startWork(finish)
				}
			})
			for r := 0; r < rounds; r++ {
				taken = 0
				impl.await(p, stage(), stage)
				if busy || taken != perRound {
					panic("worker resumed before its stage let it go")
				}
				p.Sleep(us(k.Rand().Intn(12)))
			}
		})
	}
	k.Spawn("feeder", func(p *Proc) {
		for n := 0; n < nWorkers*3*5; {
			p.Sleep(us(k.Rand().Intn(8)))
			for b := 1 + k.Rand().Intn(4); b > 0; b-- {
				push(n)
				n++
			}
		}
	})

	for i, n := 0, some(withCallers, 1+rng.Intn(4)); i < n; i++ {
		d := us(rng.Intn(4)) // 0: the same-instant FIFO
		rounds := 1 + rng.Intn(6)
		k.Spawn(fmt.Sprintf("caller-%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			var c Cond
			started, done := false, false
			finish := func() { done = true; c.Signal() }
			var in Wait
			stage := out.count(&in, func() Wait {
				if !started {
					started, done = true, false
					startWork(finish)
				}
				if !done {
					return On(&c)
				}
				return Resume
			})
			for r := 0; r < rounds; r++ {
				started, in = false, After(d)
				impl.await(p, in, stage)
				if !done {
					panic("caller resumed before its work finished")
				}
				out.done = append(out.done, fmt.Sprintf("caller %d resumed at %v", i, p.Now()))
				p.Sleep(us(k.Rand().Intn(12)))
			}
		})
	}

	conds := make([]Cond, 3)
	for i, n := 0, some(withTapers, 1+rng.Intn(4)); i < n; i++ {
		rounds := 1 + rng.Intn(5)
		k.Spawn(fmt.Sprintf("taper-%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			left := 0
			var in Wait
			stage := out.count(&in, func() Wait {
				if left == 0 {
					return Resume
				}
				left--
				c := &conds[k.Rand().Intn(len(conds))]
				switch k.Rand().Intn(7) {
				case 0:
					return After(us(k.Rand().Intn(6)))
				case 1:
					k.After(us(1+k.Rand().Intn(10)), c.Signal)
					return On(c)
				case 2:
					c.Broadcast() // wakes others from kernel context
					return After(us(k.Rand().Intn(4)))
				case 3:
					k.Spawn("waker", func(hp *Proc) {
						hp.Sleep(us(k.Rand().Intn(6)))
						c.Broadcast()
					})
					return On(c)
				case 4:
					c.Signal() // never itself: it is no waiter yet
					return On(c)
				case 5:
					k.Schedule(k.Now(), c.Broadcast)
					return On(c)
				default:
					return Resume
				}
			})
			for r := 0; r < rounds; r++ {
				left = 1 + k.Rand().Intn(8)
				switch k.Rand().Intn(3) {
				case 0:
					in = Resume
				case 1:
					in = After(us(k.Rand().Intn(5)))
				default:
					in = stage()
				}
				impl.await(p, in, stage)
				out.done = append(out.done, fmt.Sprintf("taper %d through its tape at %v", i, p.Now()))
				if k.Rand().Intn(2) == 0 {
					conds[k.Rand().Intn(len(conds))].Wait(p) // a plain wait: no stage runs at its wake
				} else {
					p.Sleep(us(k.Rand().Intn(10)))
				}
			}
		})
	}
	k.Every(k.Now(), 9*time.Microsecond, func() bool {
		conds[k.Rand().Intn(len(conds))].Broadcast()
		return true
	})

	// Daemons whose flag is never raised again poll forever: bound the run.
	drive(600 * Microsecond)
	out.workers = k.WorkersCreated()
	k.Close()
	out.closed = [4]int{k.Live(), k.Blocked(), k.Pending(), unwound}
	return out
}

// referenceAwaitMix runs seed's program with impl, which spawns its
// daemons by SpawnLazy, and checks what holds of any such run: something
// got through, Close left nothing behind, and every daemon had a worker
// from the start.
func referenceAwaitMix(t *testing.T, seed int64, shapes awaitShapes, impl awaitImpl) awaitMixRun {
	t.Helper()
	want := runAwaitMix(seed, shapes, impl)
	if len(want.done) == 0 {
		t.Fatalf("seed %d: degenerate program, nothing got through (%d events)", seed, len(want.log))
	}
	if c := want.closed; c[0] != 0 || c[1] != 0 || c[2] != 0 {
		t.Fatalf("seed %d: after Close (Live, Blocked, Pending) = %v, want 0s", seed, c[:3])
	}
	if want.quietWorkers != uint64(len(want.pids)) {
		t.Fatalf("seed %d: %d workers for %d lazily spawned daemons", seed, want.quietWorkers, len(want.pids))
	}
	return want
}

// matchAwaitMix runs seed's program with impl (called name) and fails t at
// its first difference from want, the run of the reference (called ref):
// the same (time, seq, process) for every event, the same Blocked() and
// Live() after every one, the same daemon PIDs, the same completions in
// the same order, the same state after Close, and no more workers.
func matchAwaitMix(t *testing.T, seed int64, shapes awaitShapes, name string, impl awaitImpl, ref string, want awaitMixRun) awaitMixRun {
	t.Helper()
	got := runAwaitMix(seed, shapes, impl)
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d: %s ran %d events, %s %d", seed, name, len(got.log), ref, len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d: event %d is %+v with %s, %+v with %s", seed, i, got.log[i], name, want.log[i], ref)
		}
		if got.counts[i] != want.counts[i] {
			t.Fatalf("seed %d: after event %d (Blocked, Live) = %v with %s, %v with %s",
				seed, i, got.counts[i], name, want.counts[i], ref)
		}
	}
	if !reflect.DeepEqual(got.done, want.done) {
		t.Fatalf("seed %d: completions differ\n%s: %v\n%s: %v", seed, name, got.done, ref, want.done)
	}
	if !reflect.DeepEqual(got.pids, want.pids) || got.closed != want.closed {
		t.Fatalf("seed %d: PIDs %v, after Close %v with %s; %v, %v with %s",
			seed, got.pids, got.closed, name, want.pids, want.closed, ref)
	}
	if got.workers > want.workers {
		t.Fatalf("seed %d: %s created %d workers, %s %d", seed, name, got.workers, ref, want.workers)
	}
	return got
}

// unboundWhileWaiting checks a polled run created in the quiet phase a
// worker per daemon let go at most (a finished one may serve the next)
// plus one per daemon spawned lazily, none for a daemon still polling, and
// returns how many daemons waited it out without one.
func unboundWhileWaiting(t *testing.T, seed int64, got awaitMixRun) int {
	t.Helper()
	if got.quietWorkers > uint64(got.quietStarted+got.lazy) {
		t.Fatalf("seed %d: %d workers in the quiet phase for %d daemons let go and %d spawned lazily",
			seed, got.quietWorkers, got.quietStarted, got.lazy)
	}
	return len(got.pids) - int(got.quietWorkers)
}

// tally adds run's stage counts to total's.
func (total *awaitMixRun) tally(run awaitMixRun) {
	for i := range total.waits {
		total.waits[i] += run.waits[i]
	}
	total.reparks += run.reparks
}

// TestAwaitMatchesReferenceLoop: Await must be event-for-event the loop it
// stands for, and a SpawnPollers member SpawnLazy with the Await first
// (see matchAwaitMix), over the whole mix — several workers wait on one
// Cond, and Close cuts waits short — while a member creates no worker
// until it is let go. The four tests after it run the same check on one
// shape at a time; TestPollersMatchSpawnLoop runs groups of many members.
//
// Mutations of kernel.go this was checked to fail under: blocked++
// dropped from proceed; blocked++ dropped on a woken re-park only (the
// evResume case queuing the stage's wait itself); blocked-- dropped from
// the evAwait case; p.stage left set when proceed lets the process go (a
// later plain Cond wake runs a stale stage); the evResume case resuming
// the process without running its stage; a delay's expiry queued as a
// Sleep's, so no stage runs; proceed taking After(0) for Resume; a Cond
// re-park under the old park generation (no prepark); Close not counting
// unbound processes out of Live; proceed reporting Resume as a wait for a
// process that already has a worker.
func TestAwaitMatchesReferenceLoop(t *testing.T) {
	var total awaitMixRun
	saved := 0
	for seed := int64(1); seed <= 200; seed++ {
		want := referenceAwaitMix(t, seed, allShapes, byLoop)
		matchAwaitMix(t, seed, allShapes, "Await", byAwait, "the loop", want)
		got := matchAwaitMix(t, seed, allShapes, "SpawnPollers", byPollers, "the loop", want)
		saved += unboundWhileWaiting(t, seed, got)
		total.tally(got)
	}
	if total.waits[0] < 5_000 || total.waits[1] < 3_500 || total.waits[2] < 3_000 || total.reparks < 2_000 || saved < 300 {
		t.Fatalf("degenerate programs over 200 seeds: stages returned %d After, %d On, %d Resume; %d re-parked after a wake; %d daemons waited out the quiet phase without a worker",
			total.waits[0], total.waits[1], total.waits[2], total.reparks, saved)
	}
}

// TestSleepWhileMatchesSleepLoop: a poll — a stage that returns After(d)
// until a flag is raised, what SleepWhile was — matches the Sleep loop,
// with only the daemons polling.
func TestSleepWhileMatchesSleepLoop(t *testing.T) {
	var total awaitMixRun
	for seed := int64(1); seed <= 200; seed++ {
		want := referenceAwaitMix(t, seed, 0, byLoop)
		total.tally(matchAwaitMix(t, seed, 0, "Await", byAwait, "the Sleep loop", want))
	}
	if total.waits[0] < 4_500 || total.waits[2] < 800 {
		t.Fatalf("degenerate programs over 200 seeds: polls returned %d After, %d Resume", total.waits[0], total.waits[2])
	}
}

// TestSleepThenWaitMatchesInlineContinuation: a delay and then one piece
// of work waited for on a Cond — what SleepThenWait was — matches the
// Sleep and the Cond.Wait run inline, with callers beside the daemons.
func TestSleepThenWaitMatchesInlineContinuation(t *testing.T) {
	var total awaitMixRun
	for seed := int64(1); seed <= 200; seed++ {
		want := referenceAwaitMix(t, seed, withCallers, byLoop)
		total.tally(matchAwaitMix(t, seed, withCallers, "Await", byAwait, "the inline continuation", want))
	}
	if total.waits[1] < 600 || total.waits[2] < 1_500 {
		t.Fatalf("degenerate programs over 200 seeds: stages returned %d On, %d Resume", total.waits[1], total.waits[2])
	}
}

// TestWaitStagedMatchesWaitLoop: a chain of Cond waits — what WaitStaged
// was — matches the Cond.Wait loop, with workers sharing one queue Cond
// beside the daemons, so the wake order of several waiters shows.
func TestWaitStagedMatchesWaitLoop(t *testing.T) {
	var total awaitMixRun
	for seed := int64(1); seed <= 200; seed++ {
		want := referenceAwaitMix(t, seed, withWorkers, byLoop)
		total.tally(matchAwaitMix(t, seed, withWorkers, "Await", byAwait, "the Wait loop", want))
	}
	if total.waits[1] < 2_000 || total.reparks < 1_500 {
		t.Fatalf("degenerate programs over 200 seeds: stages returned %d On; %d re-parked after a wake", total.waits[1], total.reparks)
	}
}

// TestSpawnPolledMatchesSpawnLazy: SpawnPollers — what SpawnPolled was,
// for a daemon that starts by waiting — matches SpawnLazy with the Await
// as the body's first statement, while creating no worker for a daemon
// until its predicate lets it go.
func TestSpawnPolledMatchesSpawnLazy(t *testing.T) {
	saved := 0
	for seed := int64(1); seed <= 200; seed++ {
		want := referenceAwaitMix(t, seed, 0, byAwait)
		got := matchAwaitMix(t, seed, 0, "SpawnPollers", byPollers, "SpawnLazy", want)
		saved += unboundWhileWaiting(t, seed, got)
	}
	if saved < 250 {
		t.Fatalf("degenerate programs over 200 seeds: %d daemons waited out the quiet phase without a worker", saved)
	}
}

// The tests below pin the three shapes a stage takes in the tree — a poll
// (SleepWhile), a delay and then one piece of work (SleepThenWait), a
// chain of waits on Conds (WaitStaged) — and a daemon that starts by
// waiting (SpawnPolled): their timing, their cost in events and
// allocations, and the kernel-context contract. Each is named for the
// call its shape had before Await replaced all four.

// TestSleepWhileResumesOnFirstFalseCheck: a stage that returns After(d)
// while there is nothing to do checks at d, 2d, ... after the call, and
// the process resumes at the first check that finds work.
func TestSleepWhileResumesOnFirstFalseCheck(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	ready := false
	checks := 0
	var resumed Time
	idle := func() Wait {
		if checks++; ready {
			return Resume
		}
		return After(10 * time.Microsecond)
	}
	k.Spawn("poller", func(p *Proc) {
		p.Await(After(10*time.Microsecond), idle)
		resumed = p.Now()
	})
	k.Schedule(25*Microsecond, func() { ready = true })
	k.Run()
	if resumed != 30*Microsecond || checks != 3 {
		t.Fatalf("resumed at %v after %d checks, want 30µs after 3", resumed, checks)
	}
	if k.Blocked() != 0 || k.Live() != 0 {
		t.Fatalf("Blocked=%d Live=%d after the poller finished, want 0 0", k.Blocked(), k.Live())
	}
}

// TestSleepWhileIdleTickAllocatesNothing: a delay re-wait — a poll that
// finds nothing to do — is one pop and one push.
func TestSleepWhileIdleTickAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	idle := func() Wait { return After(time.Microsecond) }
	for i := 0; i < 64; i++ {
		k.Spawn("poller", func(p *Proc) { p.Await(idle(), idle) })
	}
	k.RunUntil(10 * Microsecond) // every poller parked, queues at capacity
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("idle poll tick allocates %v objects, want 0", a)
	}
}

// condWaiters counts c's registered (possibly already woken) waiters.
func condWaiters(c *Cond) int {
	n := len(c.waiters)
	if c.has0 {
		n++
	}
	return n
}

// mustNotBlock runs a process whose stage blocks and checks the kernel's
// panic names it.
func mustNotBlock(t *testing.T, first func(k *Kernel, c *Cond) Wait) {
	t.Helper()
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	k.Spawn("blocker", func(p *Proc) {
		p.Await(first(k, &c), func() Wait {
			p.Sleep(time.Microsecond)
			return Resume
		})
	})
	msg := mustPanic(t, func() { k.Run() })
	if !strings.Contains(msg, "must not block") || !strings.Contains(msg, `"blocker"`) {
		t.Fatalf("unexpected panic message: %v", msg)
	}
}

// TestSleepWhilePredicateMustNotBlock: a stage runs in kernel context, so
// a blocking call from it hits the park guard — here at a delay's expiry.
func TestSleepWhilePredicateMustNotBlock(t *testing.T) {
	mustNotBlock(t, func(*Kernel, *Cond) Wait { return After(time.Microsecond) })
}

// TestSleepThenWaitResumesInTheStageEvent pins the cost: a stage with
// nothing to wait for resumes its process in the very event that ran it
// (no wake event behind it), and one that waits costs the expiry plus the
// wake.
func TestSleepThenWaitResumesInTheStageEvent(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	var first, second Time
	k.Spawn("caller", func(p *Proc) {
		p.Await(After(5*time.Microsecond), func() Wait { return Resume })
		first = p.Now()
		started := false
		p.Await(After(5*time.Microsecond), func() Wait {
			if started {
				return Resume
			}
			started = true
			k.After(7*time.Microsecond, c.Signal)
			return On(&c)
		})
		second = p.Now()
	})
	k.Run()
	if first != 5*Microsecond || second != 17*Microsecond {
		t.Fatalf("resumed at %v and %v, want 5µs and 17µs", first, second)
	}
	// start, expiry (resumes), expiry (parks), signal callback, wake.
	if k.EventsProcessed() != 5 {
		t.Fatalf("%d events, want 5", k.EventsProcessed())
	}
	if k.Blocked() != 0 || k.Live() != 0 || condWaiters(&c) != 0 {
		t.Fatalf("Blocked=%d Live=%d Waiters=%d after the caller finished, want all 0", k.Blocked(), k.Live(), condWaiters(&c))
	}
}

// TestSleepThenWaitAllocatesNothing: with the stage built once, a
// delay-then-wait round trip is pushes and pops only.
func TestSleepThenWaitAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	signal := func(uint64) { c.Signal() }
	waiting := false
	stage := func() Wait {
		if waiting = !waiting; !waiting {
			return Resume
		}
		k.ScheduleTagged(k.Now().Add(time.Microsecond), signal, 0)
		return On(&c)
	}
	k.Spawn("caller", func(p *Proc) {
		for {
			p.Await(After(time.Microsecond), stage)
		}
	})
	k.RunUntil(100 * Microsecond) // queues at capacity
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("a delay-then-wait step allocates %v objects, want 0", a)
	}
}

// TestSleepThenWaitStageMustNotBlock: the same, at a delay of 0.
func TestSleepThenWaitStageMustNotBlock(t *testing.T) {
	mustNotBlock(t, func(*Kernel, *Cond) Wait { return After(0) })
}

// TestWaitStagedResumesInTheLastStageEvent pins the cost: each wake is one
// event whether the stage re-parks or lets the process go, and the process
// resumes in the event of the stage that returned Resume.
func TestWaitStagedResumesInTheLastStageEvent(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var a, b Cond
	var stages []Time
	var resumed Time
	k.Spawn("caller", func(p *Proc) {
		k.After(3*time.Microsecond, a.Signal)
		p.Await(On(&a), func() Wait {
			stages = append(stages, k.Now())
			if len(stages) == 1 {
				k.After(4*time.Microsecond, b.Signal)
				return On(&b)
			}
			return Resume
		})
		resumed = p.Now()
		p.Await(On(nil), func() Wait { panic("On(nil) is Resume: there is no stage to run") })
	})
	k.Run()
	if want := []Time{3 * Microsecond, 7 * Microsecond}; !reflect.DeepEqual(stages, want) || resumed != 7*Microsecond {
		t.Fatalf("stages ran at %v and the caller resumed at %v, want %v and 7µs", stages, resumed, want)
	}
	// start, signal a, wake (stage parks on b), signal b, wake (resumes).
	if k.EventsProcessed() != 5 {
		t.Fatalf("%d events, want 5", k.EventsProcessed())
	}
	if k.Blocked() != 0 || k.Live() != 0 || condWaiters(&a) != 0 || condWaiters(&b) != 0 {
		t.Fatalf("Blocked=%d Live=%d Waiters=%d,%d after the caller finished, want all 0",
			k.Blocked(), k.Live(), condWaiters(&a), condWaiters(&b))
	}
}

// TestWaitStagedAllocatesNothing: with the stage built once, a Cond
// re-wait is pushes and pops only.
func TestWaitStagedAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	signal := func(uint64) { c.Signal() }
	stage := func() Wait {
		k.ScheduleTagged(k.Now().Add(time.Microsecond), signal, 0)
		return On(&c)
	}
	k.Spawn("caller", func(p *Proc) { p.Await(stage(), stage) })
	k.RunUntil(100 * Microsecond) // queues at capacity
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("a Cond re-wait allocates %v objects, want 0", a)
	}
}

// TestWaitStagedStageMustNotBlock: the same, at a Cond's wake.
func TestWaitStagedStageMustNotBlock(t *testing.T) {
	mustNotBlock(t, func(k *Kernel, c *Cond) Wait {
		k.After(time.Microsecond, c.Signal)
		return On(c)
	})
}

// TestCloseUnwindsProcessesParkedMidStage: a process whose stage parked
// it again is a parked process like any other to Close.
func TestCloseUnwindsProcessesParkedMidStage(t *testing.T) {
	k := NewKernel(1)
	var first, never Cond
	unwound := 0
	for i := 0; i < 3; i++ {
		k.Spawn("staged", func(p *Proc) {
			defer func() { unwound++ }()
			p.Await(On(&first), func() Wait { return On(&never) })
		})
	}
	k.After(time.Microsecond, first.Broadcast)
	k.Run()
	if k.Live() != 3 || k.Blocked() != 3 || condWaiters(&never) != 3 {
		t.Fatalf("before Close: Live=%d Blocked=%d waiters=%d, want 3 3 3", k.Live(), k.Blocked(), condWaiters(&never))
	}
	k.Close()
	if k.Live() != 0 || k.Blocked() != 0 || unwound != 3 {
		t.Fatalf("after Close: Live=%d Blocked=%d, %d bodies unwound; want 0 0 3", k.Live(), k.Blocked(), unwound)
	}
}

// TestSpawnPolledOwnsNoWorkerUntilReleased pins SpawnPollers' accounting:
// a waiting member is live and blocked like any waiting process, creates a
// worker only in the tick whose predicate lets it go, and is counted out
// of Live by Close if that tick never came.
func TestSpawnPolledOwnsNoWorkerUntilReleased(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	ready := make([]bool, 8)
	ran := 0
	k.SpawnPollers(len(ready), 10*time.Microsecond, func(int) string { return "daemon" },
		func(i int) bool { return ready[i] },
		func(p *Proc, _ int) {
			ran++
			p.Sleep(time.Hour)
		})
	k.RunUntil(Millisecond)
	if k.WorkersCreated() != 0 || runtime.NumGoroutine() > before {
		t.Fatalf("waiting processes hold %d workers and %d goroutines, want 0 0",
			k.WorkersCreated(), runtime.NumGoroutine()-before)
	}
	if k.Live() != 8 || k.Blocked() != 8 {
		t.Fatalf("Live=%d Blocked=%d while waiting, want 8 8", k.Live(), k.Blocked())
	}
	ready[3] = true
	k.RunUntil(2 * Millisecond)
	if ran != 1 || k.WorkersCreated() != 1 {
		t.Fatalf("ran=%d WorkersCreated=%d after one release, want 1 1", ran, k.WorkersCreated())
	}
	if k.Live() != 8 || k.Blocked() != 8 {
		t.Fatalf("Live=%d Blocked=%d with one daemon asleep in its body, want 8 8", k.Live(), k.Blocked())
	}
	k.Close()
	if k.Live() != 0 || k.Blocked() != 0 || k.Pending() != 0 {
		t.Fatalf("after Close: Live=%d Blocked=%d Pending=%d, want all 0", k.Live(), k.Blocked(), k.Pending())
	}
	waitGoroutines(t, before)
}

// TestSpawnPolledIdleTickAllocatesNothing: an idle round — SpawnPollers
// members re-checked and still waiting — is one pop and one push however
// many members it ticks, and so is a lone member's tick.
func TestSpawnPolledIdleTickAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 64} {
		k := NewKernel(1)
		k.SpawnPollers(n, time.Microsecond, func(int) string { return "daemon" },
			func(int) bool { return false }, func(*Proc, int) { t.Error("a calm member ran") })
		k.RunUntil(10 * Microsecond) // queues at capacity
		if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
			t.Fatalf("%d members: an idle round allocates %v objects, want 0", n, a)
		}
		k.Close()
	}
}
