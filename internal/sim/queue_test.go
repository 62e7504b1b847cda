package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEvent is one pending event of the reference queue: its key, and
// which callback it runs — a scheduled event's own id, a timer's, or a
// poller member's tick (start: the member's start event, which calls
// nothing).
type refEvent struct {
	at    Time
	seq   uint64
	id    uint64
	start bool
}

// queueLanes and queueTimers are how many lanes and timers a decoded
// program schedules through; timer i fires as id timerID+i, and member i
// of poller group g ticks as pollerID+g*4+i.
const (
	queueLanes  = 3
	queueTimers = 4
	timerID     = 1 << 32
	pollerID    = 1 << 40
)

// queueObs is one callback as the program saw it run: its id and instant,
// for a poller tick whether ready let the member go, and where its
// readings of Reached for the action's probe keys start in the log.
type queueObs struct {
	at      Time
	id      uint64
	release bool
	reached int
}

// runQueueProgram decodes data into operations on a fresh kernel and
// applies each to a reference as well: a slice of pending events that a
// step pops by least (time, seq), the key Kernel documents, with a
// sequence number taken by every schedule, lane append, timer arm and
// poller tick and an instant at or before now clamped to now. A byte
// picks the operation and the next byte its argument:
//
//   - ScheduleTagged 0 to 7 µs ahead (0: the same-instant FIFO);
//   - a lane append 0 to 15 µs ahead, in order or not (the lane falls
//     back to the heap);
//   - a timer's Arm from 2 µs back to 29 µs ahead, moving a firing already
//     queued (in the heap: re-keyed where it sits; in the FIFO: a
//     tombstone) or queueing its first;
//   - a timer's Stop;
//   - one Step, or four;
//   - SpawnPollers of 1 to 3 members polling every 1 to 4 µs, each let go
//     at its first to fourth ready: their ticks run as rounds, several to
//     a Step;
//   - RunUntil 0 to 7 µs ahead.
//
// The program then steps until the kernel is empty. Every callback reads
// Reached for a few keys picked before the action — the last key popped,
// the next two pending, one popped and one pending by the argument — and
// each reading must say whether the reference had popped that key before
// the callback's own; after RunUntil returns, whether it has popped it at
// all. It returns an error at the first callback, instant, reading or
// queue length that differs from the reference's.
func runQueueProgram(data []byte) error {
	k := NewKernel(1)
	defer k.Close()
	var (
		obs     []queueObs
		probes  []refEvent
		reached []bool
	)
	see := func(id uint64, release bool) {
		obs = append(obs, queueObs{at: k.Now(), id: id, release: release, reached: len(reached)})
		for _, pr := range probes {
			reached = append(reached, k.Reached(pr.at, pr.seq))
		}
	}
	fire := func(id uint64) { see(id, false) }
	var lanes [queueLanes]Lane
	for i := range lanes {
		lanes[i] = k.NewLane()
	}
	var timers [queueTimers]Timer
	for i := range timers {
		timers[i].Init(k, fire, timerID+uint64(i))
	}
	type pollers struct {
		period  time.Duration
		letGoAt int   // the ready call that lets a member go
		readies []int // ready calls so far, by member
	}
	var groups []*pollers

	var ref, popped []refEvent
	popIdx := map[uint64]int{} // a popped key's place in popped, by seq
	var seq, nextID uint64
	push := func(at Time, id uint64, start bool) {
		seq++
		ref = append(ref, refEvent{at: at, seq: seq, id: id, start: start})
	}
	add := func(at Time, id uint64, start bool) { push(max(at, k.Now()), id, start) }
	unarm := func(id uint64) {
		for i, e := range ref {
			if e.id == id {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
	}
	least := func(skip int) int { // the pending event with the least key, skip excluded
		m := -1
		for i, e := range ref {
			if i != skip && (m < 0 || e.at < ref[m].at || e.at == ref[m].at && e.seq < ref[m].seq) {
				m = i
			}
		}
		return m
	}
	wasPopped := func(e refEvent, before int) bool {
		i, ok := popIdx[e.seq]
		return ok && i < before
	}
	pickProbes := func(arg int) {
		probes = probes[:0]
		if n := len(popped); n > 0 {
			probes = append(probes, popped[n-1], popped[arg%n])
		}
		if m := least(-1); m >= 0 {
			probes = append(probes, ref[m], ref[arg%len(ref)])
			if m2 := least(m); m2 >= 0 {
				probes = append(probes, ref[m2])
			}
		}
	}
	// replay pops the reference's next event, as the kernel must just have
	// run it, and checks it against the next callback seen, if it makes
	// one: a poller member that is not let go ticks again a period on.
	var seen int
	replay := func(op int) error {
		m := least(-1)
		e := ref[m]
		ref = append(ref[:m], ref[m+1:]...)
		popIdx[e.seq] = len(popped)
		popped = append(popped, e)
		release := false
		if !e.start {
			if seen == len(obs) {
				return fmt.Errorf("op %d: no callback ran for event %d at %v (seq %d)", op, e.id, e.at, e.seq)
			}
			o := obs[seen]
			if o.id != e.id || o.at != e.at {
				return fmt.Errorf("op %d: ran event %d at %v, the reference's next is %d at %v (seq %d)",
					op, o.id, o.at, e.id, e.at, e.seq)
			}
			for j, pr := range probes {
				if got, want := reached[o.reached+j], wasPopped(pr, len(popped)-1); got != want {
					return fmt.Errorf("op %d: in event %d at %v (seq %d), Reached(%v, %d) = %v, want %v",
						op, e.id, e.at, e.seq, pr.at, pr.seq, got, want)
				}
			}
			seen++
			release = o.release
		}
		if e.id >= pollerID && !release {
			g := groups[(e.id-pollerID)/4]
			push(e.at.Add(g.period), e.id, false) // queued in its event, before the clock moved on
		}
		return nil
	}
	// act runs one kernel action and replays it on the reference: the
	// events the kernel counted, or, for RunUntil (until >= 0), every event
	// due by until.
	act := func(op, arg int, until Time, run func() bool) error {
		pickProbes(arg)
		obs, reached, seen = obs[:0], reached[:0], 0
		n0 := k.EventsProcessed()
		ran := run()
		d := int(k.EventsProcessed() - n0)
		if until < 0 && ran != (len(ref) > 0) {
			return fmt.Errorf("op %d: Step ran an event: %v, the reference has one: %v", op, ran, len(ref) > 0)
		}
		for i := 0; ; i++ {
			if until < 0 && i == d {
				break
			}
			if until >= 0 {
				if m := least(-1); m < 0 || ref[m].at > until {
					if i != d {
						return fmt.Errorf("op %d: RunUntil(%v) ran %d events, the reference %d", op, until, d, i)
					}
					break
				}
			}
			if len(ref) == 0 {
				return fmt.Errorf("op %d: the kernel ran %d events, the reference had %d", op, d, i)
			}
			if err := replay(op); err != nil {
				return err
			}
		}
		if seen != len(obs) {
			return fmt.Errorf("op %d: %d callbacks ran, the reference's events make %d", op, len(obs), seen)
		}
		if d > 0 && k.Now() != popped[len(popped)-1].at && until < 0 {
			return fmt.Errorf("op %d: the clock reads %v after the reference's event at %v", op, k.Now(), popped[len(popped)-1].at)
		}
		if until >= 0 {
			// Returned: every key at or before now has been reached.
			for _, pr := range probes {
				if got, want := k.Reached(pr.at, pr.seq), wasPopped(pr, len(popped)); got != want {
					return fmt.Errorf("op %d: after RunUntil(%v), Reached(%v, %d) = %v, want %v", op, until, pr.at, pr.seq, got, want)
				}
			}
		}
		return nil
	}
	step := func(op, arg int) error { return act(op, arg, -1, k.Step) }
	us := func(n int) Time { return Time(time.Duration(n) * time.Microsecond) }

	for op := 0; op+1 < len(data); op += 2 {
		arg := int(data[op+1])
		var err error
		switch data[op] % 8 {
		case 0:
			nextID++
			k.ScheduleTagged(k.Now()+us(arg%8), fire, nextID)
			add(k.Now()+us(arg%8), nextID, false)
		case 1:
			nextID++
			laneTagged(lanes[arg%queueLanes], k.Now()+us(arg/queueLanes%16), fire, nextID)
			add(k.Now()+us(arg/queueLanes%16), nextID, false)
		case 2:
			i := arg % queueTimers
			at := k.Now() + us(arg/queueTimers%32-2)
			timers[i].Arm(at)
			unarm(timerID + uint64(i))
			add(at, timerID+uint64(i), false)
		case 3:
			i := arg % queueTimers
			timers[i].Stop()
			unarm(timerID + uint64(i))
		case 4:
			err = step(op, arg)
		case 5:
			for j := 0; j < 4 && err == nil; j++ {
				err = step(op, arg+j)
			}
		case 6:
			gi := len(groups)
			g := &pollers{period: time.Duration(1+arg/3%4) * time.Microsecond, letGoAt: 1 + arg/12%4, readies: make([]int, 1+arg%3)}
			groups = append(groups, g)
			base := pollerID + uint64(gi)*4
			k.SpawnPollers(len(g.readies), g.period, func(int) string { return "poller" }, func(i int) bool {
				g.readies[i]++
				release := g.readies[i] == g.letGoAt
				see(base+uint64(i), release)
				return release
			}, func(*Proc, int) {})
			for i := range g.readies {
				add(k.Now(), base+uint64(i), true)
			}
		case 7:
			until := k.Now() + us(arg%8)
			err = act(op, arg, until, func() bool { k.RunUntil(until); return true })
		}
		if err != nil {
			return err
		}
		if k.Pending() != len(ref) {
			return fmt.Errorf("op %d: %d events pending, the reference holds %d", op, k.Pending(), len(ref))
		}
	}
	for len(ref) > 0 {
		if err := step(len(data), len(ref)); err != nil {
			return err
		}
	}
	if k.Step() {
		return fmt.Errorf("the kernel ran an event after the reference drained")
	}
	return nil
}

// TestQueueMatchesSortedReference: events scheduled, appended through
// lanes, and queued, moved and cancelled by timers pop in (time, seq)
// order, as a sorted reference pops them, over 300 random programs of
// 3,000 operations. The programs keep a deep heap, so a re-armed or
// stopped timer's key has moved many times since its slot last learned
// where it was.
//
// Mutations of kernel.go this was checked to fail under: a timer's key
// re-armed in place (Timer.Arm's heapPlace) without the timerKey mark,
// so the sifts stop telling its slot where it went; no key marked at all
// (the sifts never write a position, and Arm and Stop read a stale one).
func TestQueueMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 6000)
	for prog := 0; prog < 300; prog++ {
		rng.Read(data)
		// Bias toward growth: a step only every third operation, so the
		// heap stays deep and timers move through it.
		for i := 0; i < len(data); i += 2 {
			if op := data[i] % 8; (op == 4 || op == 5 || op == 7) && rng.Intn(3) != 0 {
				data[i] = byte(rng.Intn(4))
			}
		}
		if err := runQueueProgram(data); err != nil {
			t.Fatalf("program %d: %v", prog, err)
		}
	}
}

// FuzzQueueOrder holds the kernel's event queue to the sorted reference
// of runQueueProgram on any decoded program.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 4, 2, 40, 2, 41, 4, 0, 2, 9, 3, 1, 5, 0})
	f.Add([]byte{2, 120, 2, 121, 2, 122, 2, 123, 0, 5, 1, 30, 2, 1, 3, 2, 5, 0, 5, 0})
	f.Add([]byte{6, 37, 0, 3, 1, 14, 7, 5, 6, 2, 2, 9, 4, 0, 5, 0, 7, 7, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueProgram(data); err != nil {
			t.Fatal(err)
		}
	})
}
