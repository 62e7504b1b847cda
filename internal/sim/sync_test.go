package sim

import (
	"testing"
	"time"
)

func TestMutexExclusion(t *testing.T) {
	k := NewKernel(1)
	var mu Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("worker", func(p *Proc) {
			for j := 0; j < 3; j++ {
				mu.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(time.Millisecond)
				inside--
				mu.Unlock()
			}
		})
	}
	k.Run()
	if maxInside != 1 {
		t.Errorf("maxInside = %d, want 1 (mutual exclusion violated)", maxInside)
	}
}

func TestMutexFIFO(t *testing.T) {
	k := NewKernel(1)
	var mu Mutex
	var order []int
	k.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(10 * time.Millisecond)
		mu.Unlock()
	})
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			mu.Lock(p)
			order = append(order, i)
			mu.Unlock()
		})
	}
	k.Run()
	for i := 0; i < 4; i++ {
		if order[i] != i {
			t.Fatalf("acquisition order = %v, want FIFO", order)
		}
	}
}

func TestMutexTryLock(t *testing.T) {
	k := NewKernel(1)
	var mu Mutex
	if !mu.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if mu.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	mu.Unlock()
	if mu.Locked() {
		t.Fatal("mutex still locked after Unlock")
	}
	_ = k
}

func TestMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var mu Mutex
	mu.Unlock()
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	var wg WaitGroup
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 3*Millisecond {
		t.Errorf("Wait returned at %v, want 3ms", doneAt)
	}
}

func TestWaitGroupZeroNoBlock(t *testing.T) {
	k := NewKernel(1)
	var wg WaitGroup
	ran := false
	k.Spawn("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var wg WaitGroup
	wg.Done()
}

func TestCondSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			c.Wait(p)
			woken++
		})
	}
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c.Signal()
		p.Sleep(time.Millisecond)
		if woken != 1 {
			t.Errorf("after Signal woken = %d, want 1", woken)
		}
		c.Broadcast()
	})
	k.Run()
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := NewKernel(1)
	var c Cond
	k.Spawn("w", func(p *Proc) {
		if !c.WaitTimeout(p, 2*time.Millisecond) {
			t.Error("expected timeout")
		}
		if p.Now() != 2*Millisecond {
			t.Errorf("timed out at %v, want 2ms", p.Now())
		}
	})
	k.Run()

	k2 := NewKernel(1)
	var c2 Cond
	k2.Spawn("w", func(p *Proc) {
		if c2.WaitTimeout(p, 10*time.Millisecond) {
			t.Error("unexpected timeout")
		}
	})
	k2.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c2.Signal()
	})
	k2.Run()
}

// TestCondWaitTimeoutTwoWakers covers a park cycle with two wakers — the
// signal and the deadline — in each order and at the same instant: one
// of them wins the cycle, and the loser's handle, now stale, neither
// wakes the process out of a later wait nor absorbs a later Signal.
func TestCondWaitTimeoutTwoWakers(t *testing.T) {
	// Deadline first: the timed-out registration stays in the Cond. The
	// one Signal at 5ms must pass over it and wake the second wait.
	k := NewKernel(1)
	var c Cond
	k.Spawn("w", func(p *Proc) {
		if !c.WaitTimeout(p, 2*time.Millisecond) || p.Now() != 2*Millisecond {
			t.Errorf("first wait: want a timeout at 2ms, at %v", p.Now())
		}
		if c.WaitTimeout(p, 10*time.Millisecond) || p.Now() != 5*Millisecond {
			t.Errorf("second wait: want the 5ms signal, at %v; the dead waiter stole it", p.Now())
		}
	})
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		c.Signal()
	})
	k.Run()
	if k.Blocked() != 0 {
		t.Errorf("Blocked() = %d, want 0", k.Blocked())
	}

	// Signal first: the deadline still fires at 10ms, while the process
	// is in a later park cycle, and must not cut that sleep short.
	k = NewKernel(1)
	var c2 Cond
	k.Spawn("w", func(p *Proc) {
		if c2.WaitTimeout(p, 10*time.Millisecond) || p.Now() != Millisecond {
			t.Errorf("want the 1ms signal, at %v", p.Now())
		}
		p.Sleep(20 * time.Millisecond)
		if p.Now() != 21*Millisecond {
			t.Errorf("sleep ended at %v, want 21ms; the stale deadline woke it", p.Now())
		}
	})
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		c2.Signal()
	})
	k.Run()

	// Same instant: the deadline event was queued first and wins; the
	// signal finds nobody to wake, and the process resumes exactly once.
	k = NewKernel(1)
	var c3 Cond
	resumed := 0
	k.Spawn("w", func(p *Proc) {
		if !c3.WaitTimeout(p, 2*time.Millisecond) {
			t.Error("deadline queued ahead of the same-instant signal should win")
		}
		resumed++
		p.Sleep(time.Millisecond)
	})
	k.Spawn("sig", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		c3.Signal()
	})
	k.Run()
	if resumed != 1 || k.Now() != 3*Millisecond {
		t.Errorf("resumed %d times, run ended at %v; want once, 3ms", resumed, k.Now())
	}
}

func TestFuture(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int]()
	var got int
	var gotAt Time
	k.Spawn("waiter", func(p *Proc) {
		v, err := f.Get(p)
		if err != nil {
			t.Errorf("Get error: %v", err)
		}
		got, gotAt = v, p.Now()
	})
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		f.Set(42, nil)
	})
	k.Run()
	if got != 42 || gotAt != 4*Millisecond {
		t.Errorf("got %d at %v, want 42 at 4ms", got, gotAt)
	}
	if !f.Ready() {
		t.Error("future not ready after Set")
	}
}

func TestFutureGetAfterSet(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[string]()
	f.Set("done", nil)
	k.Spawn("w", func(p *Proc) {
		v, _ := f.Get(p)
		if v != "done" {
			t.Errorf("Get = %q, want done", v)
		}
	})
	k.Run()
}

func TestFutureDoubleSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFuture[int]()
	f.Set(1, nil)
	f.Set(2, nil)
}
