package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// spawnPollersFunc is SpawnPollers' signature: the kernel's, or the loop
// it stands for.
type spawnPollersFunc func(k *Kernel, n int, period time.Duration, name func(int) string, ready func(int) bool, body func(*Proc, int)) int64

// spawnPollersByLoop is SpawnPollers spelled as its definition: n SpawnLazy
// processes in member order, each an Await re-checking ready every period
// before it runs body. (Await is held to the Sleep loop by
// TestAwaitMatchesReferenceLoop; its stages run in kernel context, as
// ready does.)
func spawnPollersByLoop(k *Kernel, n int, period time.Duration, name func(int) string, ready func(int) bool, body func(*Proc, int)) int64 {
	first := k.nextPID + 1
	for i := 0; i < n; i++ {
		poll := func() Wait {
			if ready(i) {
				return Resume
			}
			return After(period)
		}
		k.SpawnLazy(func() string { return name(i) }, func(p *Proc) {
			p.Await(After(period), poll)
			body(p, i)
		})
	}
	return first
}

// pollEntry is one callback of a poller program: when, under what
// sequence number and event count, on which process (0: kernel context),
// for which member of which group, and what it did.
type pollEntry struct {
	at            Time
	seq, events   uint64
	pid           int64
	group, member int
	what          string
}

// pollersRun is what one run of the poller program produced.
type pollersRun struct {
	log    []pollEntry
	after  [][5]int64 // EventsProcessed, Live, Blocked, Pending, Now after every RunUntil
	pids   []int64    // each group's first PID
	closed [4]int     // Live, Blocked and Pending after Close, bodies unwound

	acts     map[string]int // what the bodies did, by kind
	unbound  int            // members never let go when Close came
	stops    int            // RunUntils a body's Stop cut short
	midRound int            // lets-go with calm ticks of the group before and after them at their instant
	onRaise  int            // lets-go at the instant a callback raised the member's flag
}

// runPollers builds a random program of poller groups from seed and runs
// it with spawn, checking nothing itself: TestPollersMatchSpawnLoop
// compares what it recorded. Groups of 0–40 members poll at a few
// periods, spawned at instant 0, from timed events and from a process, so
// runs of several groups interleave at one instant. Flags are raised by
// callbacks and a ticker at the groups' own tick instants, ahead of a
// round and behind it, and by bodies for later members of their own
// round. A check sometimes schedules, at its instant or a period on,
// which takes a number from the middle of a round. A member let go runs
// a body that schedules at now and a period on, sleeps, blocks on a Cond,
// calls Stop, raises flags, spawns, polls again as a reactor does, or
// ends. The run is a series of RunUntil horizons, some on tick instants,
// and ends in Close with members still polling.
func runPollers(seed int64, spawn spawnPollersFunc) pollersRun {
	k := NewKernel(seed)
	rng := rand.New(rand.NewSource(seed))
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	out := pollersRun{acts: map[string]int{}}
	logf := func(g, i int, what string) {
		e := pollEntry{at: k.now, seq: k.seq, events: k.processed, group: g, member: i, what: what}
		if k.curr != nil {
			e.pid = k.curr.ID
		}
		out.log = append(out.log, e)
	}
	var conds [3]Cond
	k.Every(Time(us(rng.Intn(6))), us(4), func() bool {
		conds[k.Rand().Intn(len(conds))].Broadcast()
		return true
	})

	nGroups := 1 + rng.Intn(4)
	flags := make([][]int, nGroups)
	ran := make([][]bool, nGroups)
	out.pids = make([]int64, nGroups)
	periods := []time.Duration{us(3), us(5), us(7), us(10)}
	unwound := 0
	for g := 0; g < nGroups; g++ {
		n := rng.Intn(41)
		if rng.Intn(8) == 0 {
			n = 0
		}
		flags[g], ran[g] = make([]int, n), make([]bool, n)
		period := periods[rng.Intn(len(periods))]
		if g > 0 && rng.Intn(2) == 0 {
			period = periods[0] // shares instants with the groups that poll at it
		}
		raise := func(what string) {
			if n > 0 {
				i := k.Rand().Intn(n)
				flags[g][i]++
				logf(g, i, what)
			}
		}
		var poll func(i int) func() Wait
		ready := func(i int) bool {
			if k.Rand().Intn(16) == 0 { // a check may schedule: the numbers after it move on
				out.acts["check scheduled"]++
				k.Schedule(k.Now().Add(us(k.Rand().Intn(2)*int(period/time.Microsecond))), func() { logf(g, i, "scheduled by a check") })
			}
			if flags[g][i] > 0 {
				logf(g, i, "ready")
				return true
			}
			logf(g, i, "calm")
			return false
		}
		poll = func(i int) func() Wait {
			return func() Wait {
				if ready(i) {
					return Resume
				}
				return After(period)
			}
		}
		body := func(p *Proc, i int) {
			defer func() { unwound++ }()
			for {
				ran[g][i] = true
				flags[g][i] = 0
				logf(g, i, "ran")
				for a := 0; a < 1+k.Rand().Intn(3); a++ {
					switch k.Rand().Intn(9) {
					case 0:
						out.acts["now"]++
						k.Schedule(k.Now(), func() { logf(g, i, "scheduled at now") })
					case 1:
						out.acts["period"]++
						k.Schedule(k.Now().Add(period), func() { logf(g, i, "scheduled a period on") })
					case 2:
						out.acts["cond"]++
						conds[k.Rand().Intn(len(conds))].Wait(p)
						logf(g, i, "woken")
					case 3:
						out.acts["stop"]++
						k.Stop()
					case 4:
						out.acts["sleep"]++
						p.Sleep(us(k.Rand().Intn(8)))
						logf(g, i, "slept")
					case 5:
						out.acts["raise"]++
						if j := i + 1 + k.Rand().Intn(3); j < n {
							flags[g][j]++ // a later member of this round, if it is still queued
							logf(g, j, "raised by a body")
						}
					case 6:
						out.acts["spawn"]++
						k.Spawn("helper", func(hp *Proc) {
							hp.Sleep(us(k.Rand().Intn(6)))
							raise("raised by a helper")
						})
					default:
						out.acts["idle"]++
					}
				}
				if k.Rand().Intn(3) == 0 {
					out.acts["end"]++
					return
				}
				p.Await(After(period), poll(i)) // a reactor: back to polling
			}
		}
		name := func(i int) string { return fmt.Sprintf("poller-%d/%d", g, i) }
		start := func() { out.pids[g] = spawn(k, n, period, name, ready, body) }
		at := Time(0)
		switch rng.Intn(3) {
		case 0:
			start()
		case 1:
			at = Time(us(rng.Intn(20)))
			k.Schedule(at, start)
		default:
			at = Time(us(rng.Intn(20)))
			k.Spawn("spawner", func(p *Proc) {
				p.SleepUntil(at)
				start()
			})
		}
		// Raise flags at the group's tick instants: scheduled now, so
		// ahead of the round there, or from an event at that instant, so
		// behind it.
		for r, nr := 0, rng.Intn(12); r < nr; r++ {
			tick := at + Time(period)*Time(1+rng.Intn(40))
			if rng.Intn(2) == 0 {
				k.Schedule(tick, func() { raise("raised ahead of a round") })
			} else {
				k.Schedule(tick, func() { k.Schedule(k.Now(), func() { raise("raised behind a round") }) })
			}
		}
		if rng.Intn(2) == 0 { // a ticker at the group's period, raising now and then
			k.Spawn("ticker", func(p *Proc) {
				p.SleepUntil(at)
				for {
					p.Sleep(period)
					if k.Rand().Intn(5) == 0 {
						raise("raised by a ticker")
					}
				}
			})
		}
	}

	horizon := Time(0)
	for h := 0; h < 12; h++ {
		horizon += Time(us(1 + rng.Intn(40)))
		if rng.Intn(3) == 0 { // on a multiple of every period
			horizon = (horizon + Time(us(210)) - 1) / Time(us(210)) * Time(us(210))
		}
		k.RunUntil(horizon)
		if k.stopFlag {
			out.stops++
		}
		out.after = append(out.after, [5]int64{int64(k.EventsProcessed()), int64(k.Live()), int64(k.Blocked()), int64(k.Pending()), int64(k.Now())})
	}
	for g := range ran {
		for _, r := range ran[g] {
			if !r {
				out.unbound++
			}
		}
	}
	k.Close()
	out.closed = [4]int{k.Live(), k.Blocked(), k.Pending(), unwound}
	out.census()
	return out
}

// census counts, from the log, the lets-go that came mid-round and the
// ones at the instant their flag was raised.
func (out *pollersRun) census() {
	type key struct {
		at    Time
		group int
	}
	calm := map[key][]int{} // log indices of calm ticks, by instant and group
	for n, e := range out.log {
		if e.what == "calm" {
			k := key{e.at, e.group}
			calm[k] = append(calm[k], n)
		}
	}
	raised := map[[2]int]Time{} // group, member: instant of the last raise
	for n, e := range out.log {
		switch {
		case e.what == "ready":
			ticks := calm[key{e.at, e.group}]
			if len(ticks) > 0 && ticks[0] < n && ticks[len(ticks)-1] > n {
				out.midRound++
			}
			if at, ok := raised[[2]int{e.group, e.member}]; ok && at == e.at {
				out.onRaise++
			}
		case len(e.what) > 6 && e.what[:6] == "raised":
			raised[[2]int{e.group, e.member}] = e.at
		}
	}
}

// TestPollersMatchSpawnLoop: SpawnPollers must be event-for-event the
// SpawnLazy Sleep loops it stands for (spawnPollersByLoop), over 200
// random programs (runPollers): every callback — each member's every
// check, each body's every step — at the same (time, seq, event count,
// process), the same EventsProcessed, Live, Blocked, Pending and clock
// after every RunUntil, the same PIDs, and the same state after a Close
// that finds members still polling.
//
// Mutations of kernel.go this was checked to fail under: the run left
// behind by a let-go keyed at the clock instead of its tick's instant, or
// not queued; no blocked++ at a start event, no blocked-- or unbound-- at
// a let-go; Pending not counting a run's members; a member re-armed into
// the run before it although a check took a number in between; a round
// counted as one event; a start event that polls; a member let go under
// another's PID; Close not counting unbound members out of Live. Keying
// that run one number early changes nothing observable: no other event
// has a number inside a run's.
func TestPollersMatchSpawnLoop(t *testing.T) {
	var total pollersRun
	total.acts = map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		want := runPollers(seed, spawnPollersByLoop)
		got := runPollers(seed, (*Kernel).SpawnPollers)
		for i := range min(len(got.log), len(want.log)) {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: callback %d is %+v with SpawnPollers, %+v with the loop", seed, i, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d callbacks with SpawnPollers, %d with the loop", seed, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(got.after, want.after) {
			t.Fatalf("seed %d: after each RunUntil (events, Live, Blocked, Pending, now)\nSpawnPollers %v\nthe loop     %v", seed, got.after, want.after)
		}
		if !reflect.DeepEqual(got.pids, want.pids) || got.closed != want.closed {
			t.Fatalf("seed %d: PIDs %v, after Close %v with SpawnPollers; %v, %v with the loop", seed, got.pids, got.closed, want.pids, want.closed)
		}
		if c := got.closed; c[0] != 0 || c[1] != 0 || c[2] != 0 {
			t.Fatalf("seed %d: after Close (Live, Blocked, Pending) = %v, want 0s", seed, c[:3])
		}
		for a, n := range got.acts {
			total.acts[a] += n
		}
		total.unbound += got.unbound
		total.stops += got.stops
		total.midRound += got.midRound
		total.onRaise += got.onRaise
	}
	t.Logf("over 200 seeds: bodies did %v; %d lets-go mid-round, %d at their raise's instant; %d RunUntils stopped; %d members polling at Close",
		total.acts, total.midRound, total.onRaise, total.stops, total.unbound)
	a := total.acts
	if a["now"] < 400 || a["period"] < 400 || a["cond"] < 400 || a["stop"] < 400 || a["check scheduled"] < 10_000 ||
		total.midRound < 1200 || total.onRaise < 800 || total.stops < 400 || total.unbound < 1500 {
		t.Fatalf("degenerate programs over 200 seeds: bodies did %v; %d lets-go mid-round, %d at their raise's instant; %d RunUntils stopped; %d members polling at Close",
			a, total.midRound, total.onRaise, total.stops, total.unbound)
	}
}

// TestSpawnPollersRejectsPeriodNotPositive: a member polling at period 0
// would re-check at one instant forever, and the clock would never move;
// SpawnPollers refuses a period <= 0 at the call, naming the value, and
// spawns nothing.
func TestSpawnPollersRejectsPeriodNotPositive(t *testing.T) {
	for _, period := range []time.Duration{0, -time.Microsecond} {
		k := NewKernel(1)
		msg := mustPanic(t, func() {
			k.SpawnPollers(3, period, func(int) string { return "poller" },
				func(int) bool { return false }, func(*Proc, int) {})
		})
		if want := fmt.Sprintf("SpawnPollers with period %v", period); !strings.Contains(msg, want) {
			t.Errorf("period %v: panicked with %q, want it to name %q", period, msg, want)
		}
		if k.Live() != 0 || k.Pending() != 0 {
			t.Errorf("period %v: Live=%d Pending=%d after the refusal, want 0 0", period, k.Live(), k.Pending())
		}
		k.Close()
	}
}
