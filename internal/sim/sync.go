package sim

import "time"

// Mutex is a simulated mutual-exclusion lock with FIFO handoff.
type Mutex struct {
	held    bool
	waiters []waiter
}

// Lock acquires the mutex, blocking the calling process until available.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	w := p.prepark()
	m.waiters = append(m.waiters, w)
	p.park()
	// Ownership was handed to us by Unlock.
}

// TryLock acquires the mutex if it is free.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unlocked mutex")
	}
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if w.wake() {
			// Lock stays held; ownership transfers to the woken process.
			return
		}
	}
	m.held = false
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.held }

// WaitGroup waits for a collection of simulated activities to finish.
type WaitGroup struct {
	count   int
	waiters []waiter
}

// Add adds delta to the counter. Panics if the counter goes negative.
func (wg *WaitGroup) Add(delta int) {
	wg.count += delta
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.release()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	w := p.prepark()
	wg.waiters = append(wg.waiters, w)
	p.park()
}

func (wg *WaitGroup) release() {
	for _, w := range wg.waiters {
		w.wake()
	}
	wg.waiters = nil
}

// Cond is a simulated condition variable. Unlike sync.Cond it is not
// tied to a mutex: since the kernel runs one process at a time, checking
// the predicate and calling Wait cannot race.
//
// The first waiter is stored inline (w0) so the overwhelmingly common
// single-waiter case — e.g. one process waiting on a Task's completion
// — allocates nothing; additional waiters spill to the slice.
type Cond struct {
	w0      waiter
	has0    bool
	waiters []waiter
}

// add registers a waiter, preserving FIFO order: the inline slot is
// only used when no other waiter is registered.
func (c *Cond) add(w waiter) {
	if !c.has0 && len(c.waiters) == 0 {
		c.w0, c.has0 = w, true
		return
	}
	c.waiters = append(c.waiters, w)
}

// Wait parks the calling process until Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	w := p.prepark()
	c.add(w)
	p.park()
}

// WaitTimeout parks until signaled or until d elapses; it reports
// whether the wait timed out.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) (timedOut bool) {
	if d <= 0 {
		return true
	}
	w := p.prepark()
	c.add(w)
	fired := false
	p.k.After(d, func() {
		if w.wake() {
			fired = true
		}
	})
	p.park()
	return fired
}

// Signal wakes the oldest waiter, if any.
func (c *Cond) Signal() {
	if c.has0 {
		w := c.w0
		c.has0 = false
		c.w0 = waiter{}
		if w.wake() {
			return
		}
	}
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.wake() {
			return
		}
	}
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	if c.has0 {
		c.has0 = false
		w := c.w0
		c.w0 = waiter{}
		w.wake()
	}
	for _, w := range c.waiters {
		w.wake()
	}
	c.waiters = c.waiters[:0]
}

// Waiters returns the number of registered (possibly already-woken)
// waiters; mainly useful in tests.
func (c *Cond) Waiters() int {
	n := len(c.waiters)
	if c.has0 {
		n++
	}
	return n
}

// Future is a one-shot value that simulated processes can wait on.
type Future[T any] struct {
	set     bool
	val     T
	err     error
	waiters []waiter
}

// NewFuture creates an unset future.
func NewFuture[T any]() *Future[T] { return &Future[T]{} }

// Set resolves the future and wakes all waiters. Setting twice panics.
func (f *Future[T]) Set(v T, err error) {
	if f.set {
		panic("sim: future set twice")
	}
	f.set = true
	f.val, f.err = v, err
	for _, w := range f.waiters {
		w.wake()
	}
	f.waiters = nil
}

// Ready reports whether the future has been resolved.
func (f *Future[T]) Ready() bool { return f.set }

// Get blocks until the future resolves and returns its value.
func (f *Future[T]) Get(p *Proc) (T, error) {
	if !f.set {
		w := p.prepark()
		f.waiters = append(f.waiters, w)
		p.park()
	}
	return f.val, f.err
}
