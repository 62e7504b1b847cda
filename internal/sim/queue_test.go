package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEvent is one pending event of the reference queue: its key, and
// which callback it runs — a scheduled event's own id, or a timer's.
type refEvent struct {
	at  Time
	seq uint64
	id  uint64
}

// queueLanes and queueTimers are how many lanes and timers a decoded
// program schedules through; timer i fires as id timerID+i.
const (
	queueLanes  = 3
	queueTimers = 4
	timerID     = 1 << 32
)

// runQueueProgram decodes data into operations on a fresh kernel and
// applies each to a reference as well: a slice of pending events that a
// step pops by least (time, seq), the key Kernel documents, with a
// sequence number taken by every schedule, lane append and timer arm and
// an instant at or before now clamped to now. A byte picks the operation
// and the next byte its argument:
//
//   - ScheduleTagged 0 to 7 µs ahead (0: the same-instant FIFO);
//   - a lane's ScheduleTagged 0 to 15 µs ahead, in order or not (the lane
//     falls back to the heap);
//   - a timer's Arm from 2 µs back to 29 µs ahead, moving a firing already
//     queued (in the heap: re-keyed where it sits; in the FIFO: a
//     tombstone) or queueing its first;
//   - a timer's Stop;
//   - one Step, or four.
//
// The program then steps until the kernel is empty. It returns an error
// at the first step whose callback, instant or queue length differs from
// the reference's.
func runQueueProgram(data []byte) error {
	k := NewKernel(1)
	defer k.Close()
	type firing struct {
		at Time
		id uint64
	}
	var fired []firing
	fire := func(id uint64) { fired = append(fired, firing{k.Now(), id}) }
	var lanes [queueLanes]Lane
	for i := range lanes {
		lanes[i] = k.NewLane()
	}
	var timers [queueTimers]Timer
	for i := range timers {
		timers[i].Init(k, fire, timerID+uint64(i))
	}

	var ref []refEvent
	var seq, nextID uint64
	add := func(at Time, id uint64) {
		seq++
		ref = append(ref, refEvent{at: max(at, k.Now()), seq: seq, id: id})
	}
	unarm := func(id uint64) {
		for i, e := range ref {
			if e.id == id {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
	}
	us := func(n int) Time { return Time(time.Duration(n) * time.Microsecond) }
	step := func(op int) error {
		want, ok := refEvent{}, len(ref) > 0
		if ok {
			m := 0
			for i, e := range ref {
				if e.at < ref[m].at || e.at == ref[m].at && e.seq < ref[m].seq {
					m = i
				}
			}
			want = ref[m]
			ref = append(ref[:m], ref[m+1:]...)
		}
		n := len(fired)
		if got := k.Step(); got != ok {
			return fmt.Errorf("op %d: Step ran an event: %v, the reference has one: %v", op, got, ok)
		}
		if !ok {
			return nil
		}
		if len(fired) != n+1 {
			return fmt.Errorf("op %d: a step ran %d callbacks, want 1 (%+v)", op, len(fired)-n, want)
		}
		if got := fired[n]; got.id != want.id || got.at != want.at || k.Now() != want.at {
			return fmt.Errorf("op %d: ran event %d at %v (now %v), the reference's next is %d at %v (seq %d)",
				op, got.id, got.at, k.Now(), want.id, want.at, want.seq)
		}
		return nil
	}

	for op := 0; op+1 < len(data); op += 2 {
		arg := int(data[op+1])
		var err error
		switch data[op] % 6 {
		case 0:
			nextID++
			k.ScheduleTagged(k.Now()+us(arg%8), fire, nextID)
			add(k.Now()+us(arg%8), nextID)
		case 1:
			nextID++
			lanes[arg%queueLanes].ScheduleTagged(k.Now()+us(arg/queueLanes%16), fire, nextID)
			add(k.Now()+us(arg/queueLanes%16), nextID)
		case 2:
			i := arg % queueTimers
			at := k.Now() + us(arg/queueTimers%32-2)
			timers[i].Arm(at)
			unarm(timerID + uint64(i))
			add(at, timerID+uint64(i))
		case 3:
			i := arg % queueTimers
			timers[i].Stop()
			unarm(timerID + uint64(i))
		case 4:
			err = step(op)
		case 5:
			for j := 0; j < 4 && err == nil; j++ {
				err = step(op)
			}
		}
		if err != nil {
			return err
		}
		if k.Pending() != len(ref) {
			return fmt.Errorf("op %d: %d events pending, the reference holds %d", op, k.Pending(), len(ref))
		}
	}
	for len(ref) > 0 {
		if err := step(len(data)); err != nil {
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
			if data[i]%6 >= 4 && rng.Intn(3) != 0 {
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runQueueProgram(data); err != nil {
			t.Fatal(err)
		}
	})
}
