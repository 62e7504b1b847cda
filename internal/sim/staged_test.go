package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// stagedRun is what one run of the random handler program produced.
type stagedRun struct {
	log      []eventStamp
	counts   [][2]int // Blocked(), Live() after every event
	done     []string
	next     int64 // the kernel RNG's next draw
	switches uint64
	closed   [3]int // Live, Blocked, Pending after Close

	handlerSwitches uint64 // what the handlers' switches came to under SpawnLazy
	handlers        int
	waits           [3]int // After, On, Resume returned by handler stages
	nested          int    // handlers spawned from a handler's stage
}

// runStagedMix plays a random program of request handlers — processes made
// only of stages, spawned from events and from other handlers' stages,
// each a random chain of delays, Cond waits and wakes — beside plain
// sleepers, and spawns every handler with SpawnStaged (staged) or with
// SpawnLazy around one Await, the definition SpawnStaged keeps. The run
// ends in Close with handlers mid-wait.
func runStagedMix(seed int64, staged bool) stagedRun {
	k := NewKernel(seed)
	rng := rand.New(rand.NewSource(seed))
	var out stagedRun
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	conds := make([]Cond, 4)

	var spawn func(i int)
	spawn = func(i int) {
		out.handlers++
		left := k.Rand().Intn(6) // 0: over at its start
		stage := func() Wait {
			if left == 0 {
				out.waits[2]++
				out.done = append(out.done, fmt.Sprintf("handler %d over at %v", i, k.Now()))
				return Resume
			}
			left--
			switch k.Rand().Intn(6) {
			case 0, 1:
				out.waits[0]++
				return After(us(k.Rand().Intn(12))) // 0: the same-instant FIFO
			case 2:
				out.nested++
				spawn(i*10 + left)
				out.waits[0]++
				return After(us(1 + k.Rand().Intn(5)))
			case 3:
				conds[k.Rand().Intn(len(conds))].Broadcast()
				fallthrough
			default:
				c := &conds[k.Rand().Intn(len(conds))]
				k.After(us(k.Rand().Intn(20)), c.Signal)
				out.waits[1]++
				return On(c)
			}
		}
		name := func() string { return fmt.Sprintf("handler-%d", i) }
		if staged {
			k.SpawnStaged(name, stage)
			return
		}
		k.SpawnLazy(name, func(p *Proc) {
			out.handlerSwitches++ // its start
			if w := stage(); w != Resume {
				p.Await(w, stage)
				out.handlerSwitches++ // its resume, to end
			}
		})
	}
	for i, n := 0, 20+rng.Intn(40); i < n; i++ {
		k.After(us(rng.Intn(300)), func() { spawn(i) })
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			for r := 0; r < 20; r++ {
				p.Sleep(us(1 + k.Rand().Intn(25)))
				conds[k.Rand().Intn(len(conds))].Signal()
			}
		})
	}
	horizon := Time(200 * Microsecond)
	for {
		st, ok := k.peek()
		if !ok || st.at > horizon {
			break
		}
		k.Step()
		out.log = append(out.log, st)
		out.counts = append(out.counts, [2]int{k.Blocked(), k.Live()})
	}
	out.next = k.Rand().Int63()
	out.switches = k.Switches()
	k.Close()
	out.closed = [3]int{k.Live(), k.Blocked(), k.Pending()}
	return out
}

// TestSpawnStagedMatchesSpawnLazy: a SpawnStaged process is event for
// event SpawnLazy around one Await of its stage — every event's (time,
// seq, pid), Blocked and Live after it, what the handlers did when, the
// kernel RNG's next draw, and Live, Blocked and Pending after a Close that
// cuts handlers short — while no handler is ever switched in: the run
// switches exactly as often as the SpawnLazy one less the handlers'
// switches there.
//
// Mutations of kernel.go this was checked to fail under: SpawnStaged not
// counting the process in Live, or not out of it when it ends; the end
// not counted out of unbound (Close then miscounts Live); the start
// queued as evStart.
func TestSpawnStagedMatchesSpawnLazy(t *testing.T) {
	var handlers, nested int
	var waits [3]int
	for seed := int64(1); seed <= 200; seed++ {
		want := runStagedMix(seed, false)
		got := runStagedMix(seed, true)
		for i := 0; i < min(len(got.log), len(want.log)); i++ {
			if got.log[i] != want.log[i] || got.counts[i] != want.counts[i] {
				t.Fatalf("seed %d: event %d is %+v with Blocked, Live %v under SpawnStaged, %+v with %v under SpawnLazy",
					seed, i, got.log[i], got.counts[i], want.log[i], want.counts[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d events under SpawnStaged, %d under SpawnLazy", seed, len(got.log), len(want.log))
		}
		if !reflect.DeepEqual(got.done, want.done) || got.next != want.next || got.closed != want.closed {
			t.Fatalf("seed %d: SpawnStaged did %v, next draw %d, after Close %v; SpawnLazy %v, %d, %v",
				seed, got.done, got.next, got.closed, want.done, want.next, want.closed)
		}
		if got.switches != want.switches-want.handlerSwitches {
			t.Fatalf("seed %d: %d switches under SpawnStaged; want %d, SpawnLazy's %d less its handlers' %d",
				seed, got.switches, want.switches-want.handlerSwitches, want.switches, want.handlerSwitches)
		}
		handlers += got.handlers
		nested += got.nested
		for i := range waits {
			waits[i] += got.waits[i]
		}
	}
	if handlers < 8_000 || nested < 1_500 || waits[0] < 5_000 || waits[1] < 4_000 || waits[2] < 6_000 {
		t.Fatalf("degenerate programs over 200 seeds: %d handlers, %d spawned by handlers; stages returned %d After, %d On, %d Resume",
			handlers, nested, waits[0], waits[1], waits[2])
	}
}

// TestSpawnStagedReusesItsProc: a finished staged process's Proc serves
// the next one, so a steady stream of handlers allocates nothing; and a
// wake handle left from the Proc's last life stays inert, because park
// generations stay monotonic across reuse as they do for a worker's Proc
// (checked to fail with parkSeq reset on reuse).
func TestSpawnStagedReusesItsProc(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	waited := false
	first := func() Wait {
		if waited {
			return Resume
		}
		waited = true
		return On(&c)
	}
	k.SpawnStaged(func() string { return "first" }, first)
	k.Step()
	stale := c.w0 // the first handler's wake handle
	c.Signal()
	k.Step()
	if k.Live() != 0 || len(k.staged) != 1 {
		t.Fatalf("after the first handler: Live %d, %d pooled Procs; want 0, 1", k.Live(), len(k.staged))
	}
	pooled := k.staged[0]
	var c2 Cond
	resumed := false
	second := func() Wait {
		if resumed {
			return Resume
		}
		resumed = true
		return On(&c2)
	}
	k.SpawnStaged(func() string { return "second" }, second)
	k.Step()
	if len(k.staged) != 0 || c2.w0.p != pooled {
		t.Fatal("the second handler did not reuse the first one's Proc")
	}
	if stale.wake() {
		t.Fatal("a wake handle from the Proc's previous life woke the handler living in it now")
	}
	if k.Pending() != 0 || k.Live() != 1 {
		t.Fatalf("Pending %d, Live %d: the stale handle must leave the second handler waiting", k.Pending(), k.Live())
	}

	tick := func() Wait { return Resume }
	spawnTwo := func() {
		k.SpawnStaged(nil, tick)
		k.SpawnStaged(nil, tick)
		k.Run()
	}
	spawnTwo()
	if a := testing.AllocsPerRun(100, spawnTwo); a != 0 {
		t.Errorf("spawning and ending two staged processes allocates %v objects, want 0", a)
	}
}
