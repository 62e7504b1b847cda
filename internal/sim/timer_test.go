package sim

import (
	"reflect"
	"testing"
	"time"
)

// TestTimerFiresOnceWhereLastArmed: however often a timer is moved, one
// firing happens, at the last instant it was armed for, and the queue
// never holds more than that one entry for it.
func TestTimerFiresOnceWhereLastArmed(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var fired []Time
	var tm Timer
	tm.Init(k, func() { fired = append(fired, k.Now()) })

	tm.Arm(50 * Microsecond)
	tm.Arm(20 * Microsecond) // earlier
	tm.Arm(80 * Microsecond) // later
	tm.Arm(80 * Microsecond) // same instant
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d after four Arms of one timer, want 1", k.Pending())
	}
	k.Schedule(30*Microsecond, func() { tm.Arm(40 * Microsecond) })
	k.Run()
	if want := []Time{40 * Microsecond}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if got := k.EventsProcessed(); got != 2 {
		t.Fatalf("%d events, want 2: the callback and the one firing", got)
	}
}

// TestTimerRearmsFromItsOwnFiring: the timer is idle by the time its
// function runs, so the function may arm it again, even within the
// instant.
func TestTimerRearmsFromItsOwnFiring(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var fired []Time
	var tm Timer
	tm.Init(k, func() {
		fired = append(fired, k.Now())
		switch len(fired) {
		case 1:
			tm.Arm(k.Now()) // again, behind whatever this instant still holds
		case 2:
			tm.Arm(k.Now().Add(5 * time.Microsecond))
		}
	})
	tm.Arm(10 * Microsecond)
	k.Run()
	if want := []Time{10 * Microsecond, 10 * Microsecond, 15 * Microsecond}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if tm.slot != noSlot || k.Pending() != 0 {
		t.Fatalf("after the last firing: slot=%d Pending=%d, want idle and 0", tm.slot, k.Pending())
	}
}

// TestTimerSupersededInTheSameInstant: a firing already in the
// same-instant FIFO is the timer's to take back. Moved or stopped, it
// neither runs nor counts — as an event or as pending.
func TestTimerSupersededInTheSameInstant(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	var order []string
	var a, b Timer
	a.Init(k, func() { order = append(order, "a@"+k.Now().String()) })
	b.Init(k, func() { order = append(order, "b@"+k.Now().String()) })
	k.Schedule(0, func() {
		a.Arm(0)               // FIFO
		b.Arm(0)               // FIFO, behind a
		a.Arm(0)               // a's first entry is dead; a is now behind b
		b.Arm(3 * Microsecond) // b's entry is dead; b is in the heap
		if k.Pending() != 2 {
			t.Errorf("Pending = %d with two armed timers and two dead entries, want 2", k.Pending())
		}
		k.Schedule(0, func() { order = append(order, "cb") })
	})
	k.Run()
	if want := []string{"a@0s", "cb", "b@3µs"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if got := k.EventsProcessed(); got != 4 {
		t.Fatalf("%d events, want 4: two callbacks and two firings", got)
	}

	// Stopped at the head of the FIFO, with nothing else queued.
	a.Arm(k.Now())
	a.Stop()
	if k.Pending() != 0 || k.Step() {
		t.Fatalf("a stopped same-instant firing is still queued (Pending=%d)", k.Pending())
	}
}

// TestTimerStopIsIdempotent: Stop on an idle timer, and a second Stop,
// do nothing — in particular they consume no sequence number.
func TestTimerStopIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	fired := 0
	var tm Timer
	tm.Init(k, func() { fired++ })
	seq := k.seq
	tm.Stop() // never armed
	tm.Arm(10 * Microsecond)
	tm.Stop()
	tm.Stop()
	if k.seq != seq+1 {
		t.Fatalf("one Arm and three Stops consumed %d sequence numbers, want 1", k.seq-seq)
	}
	if k.Pending() != 0 || tm.slot != noSlot {
		t.Fatalf("after Stop: Pending=%d slot=%d, want 0 and idle", k.Pending(), tm.slot)
	}
	k.Run()
	if fired != 0 || k.EventsProcessed() != 0 {
		t.Fatalf("a stopped timer fired %d times (%d events)", fired, k.EventsProcessed())
	}
	tm.Arm(k.Now().Add(time.Microsecond)) // still usable
	k.Run()
	if fired != 1 {
		t.Fatalf("re-armed after Stop: fired %d times, want 1", fired)
	}
}

// TestCloseLeavesTimersIdle: Close drops armed timers' firings with every
// other pending event — from the heap, the FIFO, and behind a tombstone —
// and they can be armed again on the reused kernel.
func TestCloseLeavesTimersIdle(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	var timers [3]Timer
	for i := range timers {
		timers[i].Init(k, func() { fired++ })
	}
	k.Schedule(5*Microsecond, func() {})
	k.RunUntil(Microsecond)
	timers[0].Arm(10 * Microsecond) // heap
	timers[1].Arm(k.Now())          // FIFO
	timers[2].Arm(k.Now())
	timers[2].Arm(k.Now()) // FIFO, behind its own tombstone
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d before Close, want 4", k.Pending())
	}

	k.Close()
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after Close, want 0", k.Pending())
	}
	for i := range timers {
		if timers[i].slot != noSlot {
			t.Errorf("timer %d still armed (slot %d) after Close", i, timers[i].slot)
		}
	}
	k.Run()
	if fired != 0 {
		t.Fatalf("%d firings survived Close", fired)
	}

	for i := range timers {
		timers[i].Arm(k.Now().Add(time.Duration(i) * time.Microsecond))
	}
	timers[1].Arm(k.Now().Add(7 * time.Microsecond))
	k.Run()
	if fired != 3 || k.Now() != 8*Microsecond {
		t.Fatalf("on the reused kernel: %d firings, clock %v, want 3 and 8µs", fired, k.Now())
	}
	k.Close()
}

// TestTimerAllocatesNothingInSteadyState: arming an idle timer, moving a
// pending one (within the heap, and through the FIFO) and firing it reuse
// one slab slot.
func TestTimerAllocatesNothingInSteadyState(t *testing.T) {
	k := NewKernel(1)
	defer k.Close()
	for i := 1; i <= 16; i++ {
		k.Schedule(Time(i)*Second, func() {}) // a heap for the timer to move in
	}
	var tm Timer
	tm.Init(k, func() {})
	cycle := func() {
		now := k.Now()
		tm.Arm(now.Add(9 * time.Microsecond))
		tm.Arm(now.Add(3 * time.Microsecond)) // earlier
		tm.Arm(now.Add(20 * time.Second))     // later, past the whole heap
		tm.Arm(now)                           // into the FIFO
		tm.Arm(now)                           // over its own tombstone
		tm.Arm(now.Add(time.Microsecond))     // back into the heap
		if !k.Step() || tm.slot != noSlot {
			t.Fatal("the timer did not fire")
		}
		tm.Arm(k.Now().Add(time.Microsecond))
		tm.Stop()
	}
	cycle() // slab and queues at capacity
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("an arm/re-arm/fire/stop cycle allocates %v objects, want 0", a)
	}
}
