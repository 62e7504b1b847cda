package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// waitFn is how a process parks on c and runs stage at every wake until
// the stage lets it go: on its own goroutine, or with WaitStaged's
// kernel-context stage.
type waitFn func(p *Proc, c *Cond, stage func() *Cond)

func waitInline(p *Proc, c *Cond, stage func() *Cond) {
	for c != nil {
		c.Wait(p)
		c = stage()
	}
}

func waitInKernel(p *Proc, c *Cond, stage func() *Cond) { p.WaitStaged(c, stage) }

// waitMixRun is what one run of the random worker program produced.
type waitMixRun struct {
	events uint64
	done   []string     // "worker i finished item n at t", in order
	log    []eventStamp // every event executed
	counts [][2]int     // Blocked(), Live() after every event
}

// runWaitMix builds a random program from seed — workers that share one
// queue and one Cond to wait on it (so several park on the same Cond and
// the wake order shows), take an item, start work whose completion signals
// them (on the spot, at this instant, later, or from a spawned process),
// sometimes feed the queue when it completes, and come back to their own
// goroutine only every few items — and runs it with the given wait.
func runWaitMix(seed int64, wait waitFn) waitMixRun {
	k := NewKernel(seed)
	defer k.Close()
	rng := rand.New(rand.NewSource(seed))
	var out waitMixRun

	var queue []int
	var qCond Cond
	push := func(item int) {
		queue = append(queue, item)
		qCond.Signal()
	}
	nWorkers := 2 + rng.Intn(5)
	for i := 0; i < nWorkers; i++ {
		i := i
		rounds, perRound := 1+rng.Intn(4), 1+rng.Intn(6)
		k.Spawn(fmt.Sprintf("worker-%d", i), func(p *Proc) {
			var doneCond Cond
			item, busy, done, taken := 0, false, false, 0
			finish := func() { done = true; doneCond.Signal() }
			stage := func() *Cond {
				for {
					if busy {
						if !done {
							return &doneCond
						}
						busy = false
						out.done = append(out.done, fmt.Sprintf("worker %d finished item %d at %v", i, item, k.Now()))
						if k.Rand().Intn(3) == 0 {
							push(item + 1000)
						}
					}
					if taken == perRound {
						return nil
					}
					if len(queue) == 0 {
						return &qCond
					}
					item, queue = queue[0], queue[1:]
					taken++
					busy, done = true, false
					switch k.Rand().Intn(4) {
					case 0: // resolved on the spot: nothing to wait for
						finish()
					case 1: // completes at this very instant, behind the stage
						k.Schedule(k.Now(), finish)
					case 2:
						k.After(time.Duration(1+k.Rand().Intn(20))*time.Microsecond, finish)
					default:
						k.Spawn("helper", func(hp *Proc) {
							hp.Sleep(time.Duration(k.Rand().Intn(10)) * time.Microsecond)
							finish()
						})
					}
				}
			}
			for r := 0; r < rounds; r++ {
				taken = 0
				wait(p, stage(), stage)
				if busy || taken != perRound {
					panic("worker resumed before its stage let it go")
				}
				p.Sleep(time.Duration(k.Rand().Intn(12)) * time.Microsecond)
			}
		})
	}
	// A feeder that trickles items in, in bursts, so workers queue up on
	// qCond between them; enough in total for every worker to finish.
	k.Spawn("feeder", func(p *Proc) {
		for n := 0; n < nWorkers*4*6; {
			p.Sleep(time.Duration(k.Rand().Intn(8)) * time.Microsecond)
			for b := 1 + k.Rand().Intn(4); b > 0; b-- {
				push(n)
				n++
			}
		}
	})
	for i, n := 0, rng.Intn(3); i < n; i++ {
		spawnPingPong(k)
	}

	for {
		st, ok := k.peek()
		if !ok {
			break
		}
		k.Step()
		out.log = append(out.log, st)
		out.counts = append(out.counts, [2]int{k.Blocked(), k.Live()})
	}
	out.events = k.EventsProcessed()
	return out
}

// TestWaitStagedMatchesWaitLoop: WaitStaged must be event-for-event
// identical to the loop of Waits and stages on the process's own
// goroutine — same event count, same (time, seq, process) for every
// event, same completion order with several waiters on one Cond, and
// Blocked() and Live() agreeing after every single event.
func TestWaitStagedMatchesWaitLoop(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := runWaitMix(seed, waitInline)
		got := runWaitMix(seed, waitInKernel)
		if got.events != want.events {
			t.Fatalf("seed %d: WaitStaged ran %d events, Wait loop %d", seed, got.events, want.events)
		}
		if !reflect.DeepEqual(got.done, want.done) {
			t.Fatalf("seed %d: completions differ\nWaitStaged: %v\nWait loop:  %v", seed, got.done, want.done)
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: event %d is %+v with WaitStaged, %+v with the Wait loop", seed, i, got.log[i], want.log[i])
			}
			if got.counts[i] != want.counts[i] {
				t.Fatalf("seed %d: after event %d (Blocked, Live) = %v with WaitStaged, %v with the Wait loop",
					seed, i, got.counts[i], want.counts[i])
			}
		}
		if last := want.counts[len(want.counts)-1]; last != [2]int{0, 0} {
			t.Fatalf("seed %d: the program ended with (Blocked, Live) = %v, want 0 0", seed, last)
		}
		if len(want.done) == 0 {
			t.Fatalf("seed %d: degenerate program, no worker finished an item", seed)
		}
	}
}

// TestWaitStagedResumesInTheLastStageEvent pins the cost: each wake is one
// event whether the stage re-parks or lets the process go, and the process
// resumes in the event of the stage that returned nil.
func TestWaitStagedResumesInTheLastStageEvent(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var a, b Cond
	var stages []Time
	var resumed Time
	k.Spawn("caller", func(p *Proc) {
		k.After(3*time.Microsecond, a.Signal)
		p.WaitStaged(&a, func() *Cond {
			stages = append(stages, k.Now())
			if len(stages) == 1 {
				k.After(4*time.Microsecond, b.Signal)
				return &b
			}
			return nil
		})
		resumed = p.Now()
		p.WaitStaged(nil, func() *Cond { panic("a nil Cond has no stage to run") })
	})
	k.Run()
	if want := []Time{3 * Microsecond, 7 * Microsecond}; !reflect.DeepEqual(stages, want) || resumed != 7*Microsecond {
		t.Fatalf("stages ran at %v and the caller resumed at %v, want %v and 7µs", stages, resumed, want)
	}
	// start, signal a, wake (stage parks on b), signal b, wake (resumes).
	if k.EventsProcessed() != 5 {
		t.Fatalf("%d events, want 5", k.EventsProcessed())
	}
	if k.Blocked() != 0 || k.Live() != 0 || a.Waiters() != 0 || b.Waiters() != 0 {
		t.Fatalf("Blocked=%d Live=%d Waiters=%d,%d after the caller finished, want all 0",
			k.Blocked(), k.Live(), a.Waiters(), b.Waiters())
	}
}

// TestWaitStagedAllocatesNothing: with the stage built once, a wake that
// re-parks is pushes and pops only.
func TestWaitStagedAllocatesNothing(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	signal := func(uint64) { c.Signal() }
	stage := func() *Cond {
		k.ScheduleTagged(k.Now().Add(time.Microsecond), signal, 0)
		return &c
	}
	k.Spawn("caller", func(p *Proc) { p.WaitStaged(stage(), stage) })
	k.RunUntil(100 * Microsecond) // queues at capacity
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("a WaitStaged step allocates %v objects, want 0", a)
	}
}

// TestWaitStagedStageMustNotBlock: the stage runs in kernel context, so a
// blocking call from it hits the park guard.
func TestWaitStagedStageMustNotBlock(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var c Cond
	k.Spawn("blocker", func(p *Proc) {
		k.After(time.Microsecond, c.Signal)
		p.WaitStaged(&c, func() *Cond {
			p.Sleep(time.Microsecond)
			return nil
		})
	})
	msg := mustPanic(t, func() { k.Run() })
	if !strings.Contains(msg, "outside its own context") || !strings.Contains(msg, `"blocker"`) {
		t.Fatalf("unexpected panic message: %v", msg)
	}
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
			p.WaitStaged(&first, func() *Cond { return &never })
		})
	}
	k.After(time.Microsecond, first.Broadcast)
	k.Run()
	if k.Live() != 3 || k.Blocked() != 3 || never.Waiters() != 3 {
		t.Fatalf("before Close: Live=%d Blocked=%d waiters=%d, want 3 3 3", k.Live(), k.Blocked(), never.Waiters())
	}
	k.Close()
	if k.Live() != 0 || k.Blocked() != 0 || unwound != 3 {
		t.Fatalf("after Close: Live=%d Blocked=%d, %d bodies unwound; want 0 0 3", k.Live(), k.Blocked(), unwound)
	}
}
