package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// laneStep is one executed event as the lane differential test sees it:
// its stamp, and how many events were still queued once it had run.
type laneStep struct {
	eventStamp
	pending int
}

// laneFiring is one tagged callback: when it ran and which it was.
type laneFiring struct {
	at Time
	id uint64
}

// laneMixRun is what one run of the random lane program produced.
type laneMixRun struct {
	log    []laneStep
	fired  []laneFiring
	events uint64
	stats  QueueStats

	// How much of what the test is for the program really did.
	bySeqOnly   int // appends out of order by sequence number alone
	relocations int // timer removals that moved a lane head to another heap index
	maxBehind   int
}

// laneSource is a source of future events on one kernel of the pair: on
// the kernel under test it schedules through its Lane, on the reference
// kernel through Kernel.ScheduleTagged and, for reserved numbers, through
// the handle of no lane, which queues as the kernel always has.
type laneSource struct {
	k     *Kernel
	l     Lane
	plain bool
}

func newLaneSource(k *Kernel, plain bool) *laneSource {
	if plain {
		return &laneSource{k: k, l: Lane{k: k}, plain: true}
	}
	return &laneSource{k: k, l: k.NewLane()}
}

func (s *laneSource) tagged(at Time, fn func(uint64), id uint64) {
	if s.plain {
		s.k.ScheduleTagged(at, fn, id)
		return
	}
	s.l.ScheduleTagged(at, fn, id)
}

func (s *laneSource) reserved(at Time, seq uint64, fn func(uint64), id uint64) {
	s.l.ScheduleReserved(at, seq, fn, id)
}

// runLaneMix builds a random program from seed and runs it on one kernel
// of the pair: with plain false every ordered source schedules through a
// lane and processes wait with SleepWhile and SleepThenWait, which ride
// the kernel's delay lanes; with plain true nothing touches a lane — the
// sources use the Kernel's own methods and the processes wait with Sleep,
// which stays on the heap. The program has two halves with a Close between
// them, and the second half reuses the first half's Lane handles.
//
// The traffic: arrival streams that append runs in time order, some
// entries at or before now (the FIFO's), some deliberately earlier than
// the run's last entry, with gaps short enough to append behind a head
// still queued and long enough for the lane to drain and start again;
// deadline callers that reserve two sequence numbers and queue them in
// order, in reverse at one instant (out of order by the number alone), or
// with a shorter timeout (out of order by time); timers armed far ahead
// and then stopped or pulled in, so their removal moves whatever sits last
// in the heap, a lane head included; pollers and stagers at ten delays,
// more than the kernel keeps delay lanes for.
func runLaneMix(seed int64, plain bool) laneMixRun {
	k := NewKernel(seed)
	defer k.Close()
	rng := rand.New(rand.NewSource(seed))
	var out laneMixRun
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	fire := func(id uint64) { out.fired = append(out.fired, laneFiring{k.Now(), id}) }
	var nextID uint64
	id := func() uint64 { nextID++; return nextID }

	streams := make([]*laneSource, 2+rng.Intn(3))
	for i := range streams {
		streams[i] = newLaneSource(k, plain)
	}
	deadlines := newLaneSource(k, plain)

	half := func(until Time) {
		for _, s := range streams {
			var batch func(uint64)
			batch = func(uint64) {
				now := k.Now()
				at := now.Add(us(k.Rand().Intn(3))) // 0: the run starts in the FIFO
				for i, n := 0, k.Rand().Intn(7); i < n; i++ {
					s.tagged(at, fire, id())
					at = at.Add(us(k.Rand().Intn(4))) // 0: same instant, next number
				}
				switch k.Rand().Intn(6) {
				case 0: // earlier than the run's last entry, still ahead of now
					s.tagged(now.Add(us(1)), fire, id())
				case 1: // in the past: clamped into the FIFO
					s.tagged(now-Time(us(2)), fire, id())
				}
				gap := us(1 + k.Rand().Intn(8)) // the next run lands behind this one's tail
				if k.Rand().Intn(3) == 0 {
					gap = us(40 + k.Rand().Intn(40)) // the lane drains first
				}
				if next := now.Add(gap); next < until {
					k.ScheduleTagged(next, batch, 0)
				}
			}
			k.ScheduleTagged(k.Now().Add(us(rng.Intn(10))), batch, 0)
		}

		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			k.Spawn("caller", func(p *Proc) {
				const timeout = 30 * time.Microsecond
				for p.Now() < until {
					s1, s2 := k.ReserveSeq(), k.ReserveSeq()
					at := p.Now().Add(timeout)
					p.Sleep(us(k.Rand().Intn(12)))
					switch k.Rand().Intn(5) {
					case 0:
						deadlines.reserved(at, s1, fire, id())
						deadlines.reserved(at, s2, fire, id())
					case 1: // same instant, the smaller number second
						deadlines.reserved(at, s2, fire, id())
						deadlines.reserved(at, s1, fire, id())
						out.bySeqOnly++
					case 2: // a shorter timeout: may come due before the tail
						deadlines.reserved(at-Time(timeout/2), s1, fire, id())
					case 3:
						deadlines.reserved(at, s2, fire, id()) // s1 is never used
					}
				}
			})
		}

		timers := make([]Timer, 2+rng.Intn(3))
		for i := range timers {
			tid := id()
			timers[i].Init(k, func() { fire(tid) })
		}
		k.Spawn("timer-driver", func(p *Proc) {
			for p.Now() < until {
				tm := &timers[k.Rand().Intn(len(timers))]
				tm.Arm(p.Now().Add(us(100 + k.Rand().Intn(200)))) // deep in the heap
				p.Sleep(us(1 + k.Rand().Intn(10)))
				tm = &timers[k.Rand().Intn(len(timers))]
				if k.Rand().Intn(2) == 0 {
					tm.Arm(p.Now().Add(us(1 + k.Rand().Intn(5))))
					continue
				}
				if i := tm.slot; i != noSlot {
					last := len(k.heap) - 1
					if pos := int(k.slots[i].pos); pos >= 0 && pos < last && k.heap[last].lane != 0 {
						out.relocations++
					}
				}
				tm.Stop()
			}
		})

		delays := []time.Duration{us(1), us(2), us(3), us(4), us(5), us(6), us(7), us(9), us(11), us(13)}
		flags := make([]int, 3+rng.Intn(4))
		for i := range flags {
			d := delays[rng.Intn(len(delays))]
			idle := func() bool { return flags[i] == 0 }
			k.Spawn(fmt.Sprintf("poller-%d", i), func(p *Proc) {
				for {
					if plain {
						pollBySleepLoop(p, d, idle)
					} else {
						p.SleepWhile(d, idle)
					}
					flags[i] = 0
					p.Sleep(us(k.Rand().Intn(20)))
				}
			})
		}
		for i, n := 0, 2+rng.Intn(3); i < n; i++ {
			d := delays[rng.Intn(len(delays))]
			k.Spawn("stager", func(p *Proc) {
				var c Cond
				signal := func(uint64) { c.Signal() }
				stage := func() bool {
					flags[k.Rand().Intn(len(flags))]++
					if k.Rand().Intn(3) == 0 {
						return false // nothing to wait for
					}
					k.ScheduleTagged(k.Now().Add(us(1+k.Rand().Intn(15))), signal, 0)
					return true
				}
				for {
					if plain {
						stageInline(p, d, stage, &c)
					} else {
						p.SleepThenWait(d, stage, &c)
					}
				}
			})
		}

		for {
			st, ok := k.peek()
			if !ok || st.at > until {
				break
			}
			k.Step()
			out.log = append(out.log, laneStep{st, k.Pending()})
			out.maxBehind = max(out.maxBehind, k.QueueStats().Behind)
		}
	}

	half(300 * Microsecond)
	k.Close() // mid-run: heads in the heap, entries behind them, processes parked
	out.log = append(out.log, laneStep{pending: k.Pending()})
	half(600 * Microsecond)
	out.events = k.EventsProcessed()
	out.stats = k.QueueStats()
	return out
}

// TestLanesMatchTheHeap: scheduling through lanes must be event-for-event
// identical to scheduling everything through the heap — the same (time,
// seq, process) for every event, the same callbacks at the same instants,
// the same Pending after every step, the same event count — on random
// mixes of ordered and disordered sources, timers, pollers and stagers,
// across a Close.
//
// Mutations of kernel.go this was checked to fail under: the order check
// dropped from laneAppend; the order check comparing at only; an entry's
// key not written to its slot (the next append is checked against, and
// the promotion made with, garbage); lanePop promoting the next entry
// without the lane mark (the entries behind it never run); lanePop leaving
// a drained lane's tail set; behind not decremented, or left out of
// Pending; Close not resetting the lanes.
func TestLanesMatchTheHeap(t *testing.T) {
	var appends, fallbacks uint64
	var bySeqOnly, relocations, maxBehind int
	for seed := int64(1); seed <= 200; seed++ {
		want := runLaneMix(seed, true)
		got := runLaneMix(seed, false)
		if want.stats.LaneAppends != 0 || want.stats.LaneFallbacks != 0 || want.maxBehind != 0 {
			t.Fatalf("seed %d: the reference run used lanes: %+v", seed, want.stats)
		}
		if got.events != want.events {
			t.Fatalf("seed %d: %d events through lanes, %d through the heap", seed, got.events, want.events)
		}
		if len(got.log) != len(want.log) || len(got.fired) != len(want.fired) {
			t.Fatalf("seed %d: %d steps and %d callbacks through lanes, %d and %d through the heap",
				seed, len(got.log), len(got.fired), len(want.log), len(want.fired))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: step %d is %+v through lanes, %+v through the heap", seed, i, got.log[i], want.log[i])
			}
		}
		for i := range want.fired {
			if got.fired[i] != want.fired[i] {
				t.Fatalf("seed %d: callback %d is %+v through lanes, %+v through the heap", seed, i, got.fired[i], want.fired[i])
			}
		}
		appends += got.stats.LaneAppends
		fallbacks += got.stats.LaneFallbacks
		bySeqOnly += got.bySeqOnly
		relocations += got.relocations
		maxBehind = max(maxBehind, got.maxBehind)
	}
	if appends < 100_000 || fallbacks < 2_000 || bySeqOnly < 1_000 || relocations < 200 || maxBehind < 8 {
		t.Fatalf("degenerate programs over 200 seeds: %d lane appends, %d fallbacks, %d by sequence number alone, %d relocated heads, at most %d entries behind heads",
			appends, fallbacks, bySeqOnly, relocations, maxBehind)
	}
}

// TestPollFleetSharesOneHeapEntry: a fleet of calm reactors — processes
// that poll at one period and never find anything — is one lane, so the
// heap holds one entry for all of them. A lane that never drains must not
// grow either: each tick's slot is the one the tick before it freed, so
// the slab stays at its warm-up length and a tick allocates nothing.
func TestPollFleetSharesOneHeapEntry(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	const fleet = 125
	for i := 0; i < fleet; i++ {
		k.SpawnPolled(func() string { return "reactor" }, 200*time.Microsecond, func() bool { return true },
			func(*Proc) { t.Error("a reactor that is always calm resumed") })
	}
	k.RunUntil(Millisecond)
	check := func(when string) {
		t.Helper()
		if st := k.QueueStats(); st.Heap != 1 || st.Behind != fleet-1 || k.Pending() != fleet || st.LaneFallbacks != 0 {
			t.Fatalf("%s: heap %d, behind the head %d, Pending %d, fallbacks %d: want 1, %d, %d, 0",
				when, st.Heap, st.Behind, k.Pending(), st.LaneFallbacks, fleet-1, fleet)
		}
	}
	check("after warm-up")
	slab := len(k.slots)
	if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
		t.Fatalf("an idle tick allocates %v objects, want 0", a)
	}
	for i := 0; i < 100_000; i++ {
		k.Step()
	}
	check("after 100,000 ticks")
	if len(k.slots) != slab || k.WorkersCreated() != 0 {
		t.Fatalf("slab grew from %d to %d slots over 100,000 idle ticks (%d workers created): want no growth, no workers",
			slab, len(k.slots), k.WorkersCreated())
	}
}
