package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// eventStamp identifies one executed event: when, in what order, and
// for which process (0 for a plain callback).
type eventStamp struct {
	at  Time
	seq uint64
	pid int64
}

// peek returns the stamp of the event the next Step will execute, without
// removing it.
func (k *Kernel) peek() (eventStamp, bool) {
	e, _, ok := k.next()
	if !ok {
		return eventStamp{}, false
	}
	st := eventStamp{at: e.at, seq: e.seq}
	if s := &k.slots[e.slot]; s.p != nil {
		st.pid = s.p.ID
	} else if s.kind == evRun { // its first member's tick
		r := k.runs[s.tag]
		st.pid = r.g.pid0 + int64(r.members[0])
	}
	return st, true
}

// pollMixRun is what one run of the random program produced.
type pollMixRun struct {
	events  uint64
	resumes []string     // "poller i resumed at t", in resume order
	log     []eventStamp // every event executed that did something
	blocked int
	noops   uint64 // events that found themselves superseded (genTimer only)
}

// mixTimer is how the random program keeps a one-shot it moves about: a
// Timer, or the model Timer replaces.
type mixTimer interface {
	arm(at Time)
	stop()
}

type newMixTimer func(k *Kernel, out *pollMixRun, fire func()) mixTimer

// kernelTimer is the Timer itself.
type kernelTimer struct{ t Timer }

func newKernelTimer(k *Kernel, _ *pollMixRun, fire func()) mixTimer {
	kt := &kernelTimer{}
	kt.t.Init(k, func(uint64) { fire() }, 0)
	return kt
}

func (kt *kernelTimer) arm(at Time) { kt.t.Arm(at) }
func (kt *kernelTimer) stop()       { kt.t.Stop() }

// genTimer is the reference model: every arm pushes a fresh tagged event
// and bumps a generation, and an event that pops under a superseded
// generation does nothing.
type genTimer struct {
	k    *Kernel
	gen  uint64
	fire func(gen uint64)
}

func newGenTimer(k *Kernel, out *pollMixRun, fire func()) mixTimer {
	gt := &genTimer{k: k}
	gt.fire = func(gen uint64) {
		if gen != gt.gen {
			out.noops++
			return
		}
		fire()
	}
	return gt
}

func (gt *genTimer) arm(at Time) {
	gt.gen++
	gt.k.ScheduleTagged(at, gt.fire, gt.gen)
}

func (gt *genTimer) stop() { gt.gen++ }

// runPollMix builds a random program from seed — pollers waiting on
// flags, sleepers and timed callbacks that raise them, channel ping-pong
// pairs whose wakes interleave with the polls, and one-shot timers that
// are moved, stopped and re-armed from processes and from their own
// firings — and runs it with the given timer implementation.
func runPollMix(seed int64, newTimer newMixTimer) pollMixRun {
	k := NewKernel(seed)
	defer k.Close()
	rng := rand.New(rand.NewSource(seed))
	var out pollMixRun

	nPollers := 2 + rng.Intn(6)
	flags := make([]int, nPollers)
	periods := []time.Duration{3 * time.Microsecond, 5 * time.Microsecond, 7 * time.Microsecond, 20 * time.Microsecond}
	for i := 0; i < nPollers; i++ {
		i := i
		d := periods[rng.Intn(len(periods))]
		rounds := 1 + rng.Intn(5)
		// Poller 0's first wait may poll with period 0, spinning through
		// the same-instant FIFO until the callback below releases it.
		spinFirst := i == 0 && rng.Intn(2) == 0
		k.Spawn(fmt.Sprintf("poller-%d", i), func(p *Proc) {
			period := d
			if spinFirst {
				period = 0
			}
			idle := func() Wait {
				if flags[i] == 0 {
					return After(period)
				}
				return Resume
			}
			for r := 0; r < rounds; r++ {
				p.Await(After(period), idle)
				period = d
				out.resumes = append(out.resumes, fmt.Sprintf("poller %d resumed at %v", i, p.Now()))
				flags[i] = 0
				// Work between waits: sleep, and sometimes release a peer.
				p.Sleep(time.Duration(k.Rand().Intn(30)) * time.Microsecond)
				if k.Rand().Intn(2) == 0 {
					flags[k.Rand().Intn(nPollers)]++
				}
			}
		})
	}
	for i, n := 0, 2+rng.Intn(6); i < n; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for r := 0; r < 12; r++ {
				p.Sleep(time.Duration(1+k.Rand().Intn(40)) * time.Microsecond)
				flags[k.Rand().Intn(nPollers)]++
			}
		})
	}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		target := rng.Intn(nPollers)
		k.After(time.Duration(rng.Intn(400))*time.Microsecond, func() { flags[target]++ })
	}
	// A poller spinning at period 0 must be released at its own instant
	// or the clock would never advance: flag 0 is raised by a
	// same-instant callback queued behind its first few polls.
	k.Schedule(0, func() { k.Schedule(0, func() { flags[0]++ }) })
	for i, n := 0, rng.Intn(3); i < n; i++ {
		spawnPingPong(k)
	}
	spawnTimerMix(k, rng, &out, flags, newTimer)

	// Pollers whose flag is never raised again poll forever: bound the run.
	const horizon = 600 * Microsecond
	out.drive(k, horizon)
	return out
}

// spawnTimerMix adds one to four timers, each with a process that keeps
// moving it — later, earlier, to the instant it is already set for, to
// now, into the past, twice within one instant — or stops it. A firing
// raises a flag and is recorded as a resume; it may re-arm its own timer
// or move the next one. Around them runs tagged and reserved-sequence
// traffic, so a sequence number consumed in the wrong place shows.
func spawnTimerMix(k *Kernel, rng *rand.Rand, out *pollMixRun, flags []int, newTimer newMixTimer) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	n := 1 + rng.Intn(4)
	timers := make([]mixTimer, n)
	setFor := make([]Time, n) // where each timer was last armed for
	arm := func(i int, at Time) {
		setFor[i] = at
		timers[i].arm(at)
	}
	for i := range timers {
		i := i
		timers[i] = newTimer(k, out, func() {
			out.resumes = append(out.resumes, fmt.Sprintf("timer %d fired at %v", i, k.Now()))
			flags[k.Rand().Intn(len(flags))]++
			switch k.Rand().Intn(6) {
			case 0:
				arm(i, k.Now().Add(us(1+k.Rand().Intn(25))))
			case 1:
				arm(i, k.Now()) // fires again within this instant
			case 2:
				arm((i+1)%n, k.Now().Add(us(k.Rand().Intn(10))))
			case 3:
				timers[(i+1)%n].stop()
			}
		})
		rounds := 4 + rng.Intn(12)
		k.Spawn(fmt.Sprintf("timer-driver-%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(us(k.Rand().Intn(20)))
				switch now := p.Now(); k.Rand().Intn(10) {
				case 0, 1:
					arm(i, now.Add(us(1+k.Rand().Intn(40))))
				case 2:
					arm(i, setFor[i]) // same instant, later place in it
				case 3:
					arm(i, setFor[i]-Time(us(1+k.Rand().Intn(15)))) // earlier; may be past
				case 4:
					arm(i, setFor[i].Add(us(1+k.Rand().Intn(15)))) // later
				case 5:
					timers[i].stop()
					timers[i].stop()
				case 6:
					arm(i, now-5*Microsecond) // clamped into this instant's FIFO
				case 7:
					arm(i, now)
					arm(i, now) // supersedes a firing already in the FIFO
				case 8:
					arm(i, now)
					arm(i, now.Add(us(1+k.Rand().Intn(10)))) // out of the FIFO, into the heap
				case 9:
					arm(i, now)
					timers[i].stop()
				}
			}
		})
	}

	bump := func(target uint64) { flags[target]++ }
	for i, n := 0, rng.Intn(12); i < n; i++ {
		k.ScheduleTagged(Time(us(rng.Intn(400))), bump, uint64(rng.Intn(len(flags))))
	}
	lane := k.NewLane() // the delays vary, so some appends arrive out of order
	k.Spawn("reserver", func(p *Proc) {
		for r := 0; r < 10; r++ {
			seq := k.ReserveSeq()
			p.Sleep(us(k.Rand().Intn(12)))
			if k.Rand().Intn(3) > 0 { // else the number is never used
				lane.ScheduleReserved(p.Now().Add(us(1+k.Rand().Intn(20))), seq, bump, uint64(k.Rand().Intn(len(flags))))
			}
		}
	})
}

// spawnPingPong adds a pair of processes that hand a ball back and
// forth ten times, each parking until the other signals: blocking
// handoffs for the pollers' events to interleave with.
func spawnPingPong(k *Kernel) {
	ball := 0 // even: ping's turn
	var toPing, toPong Cond
	k.Spawn("ping", func(p *Proc) {
		for r := 0; r < 10; r++ {
			ball++
			toPong.Signal()
			for ball%2 == 1 {
				toPing.Wait(p)
			}
			p.Sleep(time.Duration(k.Rand().Intn(15)) * time.Microsecond)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for r := 0; r < 10; r++ {
			for ball%2 == 0 {
				toPong.Wait(p)
			}
			ball++
			toPing.Signal()
		}
	})
}

// drive steps k through every event up to horizon, logging each one
// that did not turn out to be a genTimer's superseded firing.
func (out *pollMixRun) drive(k *Kernel, horizon Time) {
	for {
		st, ok := k.peek()
		if !ok || st.at > horizon {
			break
		}
		noops := out.noops
		k.Step()
		if out.noops == noops {
			out.log = append(out.log, st)
		}
	}
	out.events = k.EventsProcessed()
	out.blocked = k.Blocked()
}

// TestTimerMatchesGenerationGuardedEvents: a Timer must be what pushing a
// fresh generation-tagged event per arm was, minus the events that did
// nothing — the same (time, seq, process) for every event that does
// something, the same firing and resume instants, and an event count
// lower by exactly the model's superseded firings.
func TestTimerMatchesGenerationGuardedEvents(t *testing.T) {
	var noops uint64
	for seed := int64(1); seed <= 200; seed++ {
		want := runPollMix(seed, newGenTimer)
		got := runPollMix(seed, newKernelTimer)
		if got.noops != 0 || got.events != want.events-want.noops {
			t.Fatalf("seed %d: Timer ran %d events (%d no-ops), model %d of which %d no-ops",
				seed, got.events, got.noops, want.events, want.noops)
		}
		if got.blocked != want.blocked {
			t.Fatalf("seed %d: Blocked() = %d with Timer, %d with the model", seed, got.blocked, want.blocked)
		}
		if !reflect.DeepEqual(got.resumes, want.resumes) {
			t.Fatalf("seed %d: firing and resume instants differ\nTimer: %v\nmodel: %v", seed, got.resumes, want.resumes)
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: Timer ran %d live events, model %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: live event %d is %+v with Timer, %+v with the model", seed, i, got.log[i], want.log[i])
			}
		}
		noops += want.noops
	}
	if noops < 200 {
		t.Fatalf("degenerate programs: only %d superseded firings over 200 seeds", noops)
	}
}

// mustPanic runs fn and returns the panic message it must raise.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// waitGoroutines waits for the goroutine count to fall to want: an
// unwound goroutine has told Close it is done slightly before the
// runtime stops counting it.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestCloseUnwindsParkedProcesses: Close must release every goroutine —
// pooled workers, processes parked in any wait (including one whose
// deferred function blocks), and processes that never started — and run
// the deferred functions of those it unwinds.
func TestCloseUnwindsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	deferred := 0
	var never Cond
	for i := 0; i < 4; i++ {
		k.Spawn("daemon", func(p *Proc) {
			defer func() { deferred++ }()
			p.Await(After(time.Microsecond), func() Wait { return After(time.Microsecond) })
			t.Error("daemon resumed normally")
		})
	}
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { deferred++ }()
		p.Sleep(time.Hour)
		t.Error("sleeper resumed normally")
	})
	k.Spawn("receiver", func(p *Proc) {
		defer func() {
			deferred++
			p.Sleep(time.Second) // blocks while unwinding: must not hang Close
			t.Error("deferred function continued past a blocking call")
		}()
		never.Wait(p)
	})
	k.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) }) // ends up pooled
	k.RunUntil(Millisecond)
	k.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	if k.Live() != 7 {
		t.Fatalf("Live = %d before Close, want 7", k.Live())
	}

	k.Close()
	if deferred != 6 {
		t.Errorf("%d deferred functions ran, want 6", deferred)
	}
	if k.Live() != 0 || k.Blocked() != 0 || k.Pending() != 0 || len(k.free) != 0 {
		t.Errorf("after Close: Live=%d Blocked=%d Pending=%d PooledWorkers=%d, want all 0",
			k.Live(), k.Blocked(), k.Pending(), len(k.free))
	}
	waitGoroutines(t, before)

	// The kernel is still usable.
	ran := false
	k.Spawn("again", func(p *Proc) { p.Sleep(time.Microsecond); ran = true })
	k.Run()
	if !ran {
		t.Error("spawn after Close did not run")
	}
	k.Close()
	waitGoroutines(t, before)
}

// TestParKernelCloseUnwindsShards: the same through a ParKernel. The
// daemons are counted by the goroutines whose stack holds one, so a
// goroutine of earlier work that exits meanwhile does not move the count.
func TestParKernelCloseUnwindsShards(t *testing.T) {
	pk := NewParKernel(1, 4, 10*Microsecond)
	daemon := func(p *Proc) {
		p.Await(After(3*time.Microsecond), func() Wait { return After(3 * time.Microsecond) })
	}
	for s := 0; s < pk.NumShards(); s++ {
		for i := 0; i < 8; i++ {
			pk.Shard(s).Spawn("daemon", daemon)
		}
	}
	pk.RunUntil(Millisecond)
	frame := runtime.FuncForPC(reflect.ValueOf(daemon).Pointer()).Name() + "("
	if n := goroutinesIn(frame); n != 32 {
		t.Fatalf("%d goroutines hold a daemon, want all 32 parked", n)
	}
	pk.Close()
	deadline := time.Now().Add(5 * time.Second)
	for n := goroutinesIn(frame); n > 0; n = goroutinesIn(frame) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still hold a daemon after Close", n)
		}
		runtime.Gosched()
	}
}

// goroutinesIn counts the goroutines whose stack holds a call of frame.
func goroutinesIn(frame string) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	c := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(frame)) {
			c++
		}
	}
	return c
}
