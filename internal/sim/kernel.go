//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel
// with virtual time and coroutine-backed simulated processes.
//
// The kernel executes exactly one simulated process at a time: every
// process body runs on a runtime coroutine (iter.Pull) that the kernel
// switches into and that switches back when the body parks, so simulated
// code is written as ordinary sequential Go while the kernel retains full
// determinism: given the same seed and the same program, every run
// produces an identical event order. Virtual time advances only when the
// kernel pops events from its queue; simulated code never consumes
// wall-clock time.
//
// All Quicksand substrates (machines, networks, proclets) are built on
// this kernel, which is what makes microsecond-scale claims (migration
// latency, time-to-equilibrium) reproducible in tests on any hardware.
//
// The package needs a Go ≥ 1.23 toolchain (iter.Pull); the go1.23 build
// constraint on this file is what lets a module that says "go 1.22" use it.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"time"
)

// Time is an absolute virtual timestamp in nanoseconds since the start
// of the simulation.
type Time int64

// Common virtual-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds returns the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return time.Duration(t).String() }

// qkey is one queued event as the queues see it: when it runs, its place
// among that instant's events, which slab slot holds what it does, and,
// for a heap entry that is the head of a lane, which lane (0: none). The
// same-instant FIFO and the future-event heap hold nothing else, so a
// sift moves 24 pointer-free bytes and never runs a write barrier.
type qkey struct {
	at   Time
	seq  uint64
	slot int32
	lane int32
}

// noSlot is the slot of a FIFO entry whose timer was stopped or re-armed
// after it was queued (a tombstone), and of an idle Timer.
const noSlot int32 = -1

// slot is one queued event's payload, written once when the event is
// scheduled and never moved; the slab of slots is the event pool, so
// scheduling allocates nothing once the slab has grown to the run's peak.
//
// The hot payloads are typed instead of closed over: process wakes carry
// the *Proc directly and tagged callbacks carry a uint64 argument, so the
// dominant event kinds schedule without allocating a closure.
type slot struct {
	fn  func()       // evFn payload
	tfn func(uint64) // evTagged payload
	tag uint64       // evTagged argument
	p   *Proc        // evResume / evWakeParked / evStart / evStartAwait / evAwait payload
	t   *Timer       // evTimer payload
	// at and seq are the event's key while it is in a lane: the entries
	// behind a lane's head are in no queue array, and the tail's key is
	// what the next append is checked against.
	at  Time
	seq uint64
	// pos says where the event's key is, so a Timer can find it: the heap
	// index if >= 0, else the complement of the nowq index. On a lane entry
	// behind the head it links the next entry of the lane, on a free slot
	// the free list.
	pos  int32
	kind uint8
}

// lane is the kernel's side of a Lane: a FIFO of future events that were
// appended in (time, seq) order. The first is an ordinary heap entry marked
// with the lane; the rest wait in the slab, linked through slot.pos.
type lane struct {
	next int32 // first entry behind the head; noSlot if the head is alone
	tail int32 // last entry, the head if it is alone; noSlot if the lane is empty
}

// maxDelayLanes bounds the lanes the kernel keeps for Await delays, one
// per distinct delay. A delay past the bound schedules through the
// heap, which is exact, so the bound is not a limit on programs.
const maxDelayLanes = 8

// Event payload kinds. Keep at least eight: the compiler dispatches
// step's switch through a jump table only from eight cases up, and for
// seven it builds a compare chain that branches on the kind of every
// event.
const (
	evFn         = uint8(iota) // run fn()
	evTagged                   // run tfn(tag)
	evResume                   // resume p (already un-blocked by wake), or run its Await stage
	evWakeParked               // un-block and resume p (Sleep expiry)
	evStart                    // first resume of a freshly spawned p
	evStartAwait               // first event of a SpawnAwait p: its first wait, without a worker
	evAwait                    // un-block p and run its Await stage (delay expiry)
	evTimer                    // fire t (see Timer)
)

// keyLess orders events by (time, insertion sequence).
func keyLess(a, b qkey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is a deterministic discrete-event simulator.
//
// A Kernel is not safe for concurrent use from multiple host goroutines;
// all interaction must happen either before Run or from within simulated
// processes and scheduled events. Distinct kernels are fully independent
// and may run concurrently on separate host goroutines.
type Kernel struct {
	now Time
	seq uint64

	// The event queue has three parts. Events scheduled at exactly the
	// current instant — the dominant case: wakes, Yield, same-instant event
	// chains — take a FIFO fast path that bypasses the heap entirely. FIFO
	// order within nowq equals (time, seq) order because entries are
	// appended with nondecreasing timestamps and increasing sequence
	// numbers. Events scheduled for a future instant are ordered by a
	// hand-rolled binary min-heap of keys; step compares the FIFO head
	// against the heap top so global (time, seq) order is preserved exactly.
	// nowq[nowHead] is never a tombstone; dead counts the tombstones behind
	// it. A source whose future events come in (time, seq) order anyway
	// appends them to a lane (see Lane): the heap holds the lane's first
	// entry only, and the heap top is still the earliest future event
	// because every lane is sorted and its head is its minimum.
	heap    []qkey
	nowq    []qkey
	nowHead int
	dead    int

	lanes  []lane // lanes[id-1]; id 0 means no lane
	behind int    // entries waiting in lanes behind their heads
	// The lanes Await delays ride, by delay (see pushAfter).
	delayLanes [maxDelayLanes]struct {
		d  time.Duration
		id int32 // 0: entry not yet used
	}
	// Host-side census of lane traffic (see QueueStats).
	laneAppends   uint64
	laneFallbacks uint64

	slots    []slot
	freeSlot int32 // first free slot, linked through slot.pos; noSlot if none

	rng       *rand.Rand
	nextPID   int64
	live      int // processes spawned and not yet finished
	blocked   int // processes currently parked
	unbound   int // SpawnAwait processes still waiting, without a worker
	curr      *Proc
	processed uint64
	switches  uint64 // coroutine resumes (see Switches)
	stopFlag  bool

	// Worker pool for the spawn-run-die process pattern (RPC handlers,
	// migration copiers, per-task workers). Each worker is a coroutine and
	// a Proc struct, created once and reused across process lifetimes; a
	// finished process returns its worker to the free list instead of
	// letting the coroutine end. A worker whose process panicked is
	// discarded, never pooled.
	free    []*worker
	workers []*worker // every worker whose coroutine is alive, pooled or not
	created uint64    // workers (coroutines) ever created
}

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), freeSlot: noSlot}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// EventsProcessed reports how many events the kernel has executed.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// Live reports the number of spawned processes that have not finished.
func (k *Kernel) Live() int { return k.live }

// Blocked reports the number of processes currently parked on a wait
// primitive. When Run returns with Blocked() > 0, those processes were
// waiting on conditions that never fired (often daemons, sometimes bugs).
func (k *Kernel) Blocked() int { return k.blocked }

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.heap) + k.behind + len(k.nowq) - k.nowHead - k.dead }

// QueueStats is a host-side reading of the event queue. It describes the
// simulator, not the simulation, and belongs in no report.
type QueueStats struct {
	Heap          int    // entries in the future-event heap now, lane heads included
	Behind        int    // entries waiting in lanes behind their heads now
	LaneAppends   uint64 // future events lanes have taken, in order
	LaneFallbacks uint64 // future events lanes have passed to the heap, out of order
}

// QueueStats returns the current reading.
func (k *Kernel) QueueStats() QueueStats {
	return QueueStats{Heap: len(k.heap), Behind: k.behind, LaneAppends: k.laneAppends, LaneFallbacks: k.laneFallbacks}
}

// Schedule runs fn at absolute virtual time at (clamped to now if in the
// past). fn executes in kernel context: it must not block, but it may
// spawn or wake processes.
func (k *Kernel) Schedule(at Time, fn func()) {
	k.push(at, evFn).fn = fn
}

// ScheduleTagged runs fn(tag) at absolute virtual time at (clamped like
// Schedule). Because the argument travels in the event itself, callers
// that schedule the same callback with varying state (for example an
// injector's per-arrival index) can hold one long-lived fn and schedule
// with zero allocations.
func (k *Kernel) ScheduleTagged(at Time, fn func(tag uint64), tag uint64) {
	s := k.push(at, evTagged)
	s.tfn, s.tag = fn, tag
}

// ReserveSeq consumes the next event sequence number without scheduling
// anything, for an event that may turn out not to be needed: a timer
// that matters only if something else fails to happen first. Scheduling
// it later with Lane.ScheduleReserved puts it exactly where scheduling it now
// would have, and never scheduling it leaves every other event's (time,
// seq) as it was — so a run that drops such timers when they cannot fire
// executes the same events, minus the ones that would have done nothing.
func (k *Kernel) ReserveSeq() uint64 {
	k.seq++
	return k.seq
}

// Lane is a handle on a FIFO of future events for a source that schedules
// in (time, seq) order: an open-loop arrival stream, deadlines a fixed
// timeout after their calls. The heap orders a lane's first entry against
// everything else and the rest wait behind it at no cost to anyone, so a
// pop sifts through one entry per lane instead of one per event. Order is
// checked, not assumed: an append that would come before the lane's last
// entry is queued through the heap like any other event, so every event
// runs at the same (time, seq) whichever lane it was scheduled through, or
// none. A Lane belongs to its kernel's shard and is used only from that
// shard's context; it stays usable across Kernel.Close.
type Lane struct {
	k  *Kernel
	id int32
}

// NewLane returns a new, empty lane on k.
func (k *Kernel) NewLane() Lane {
	k.lanes = append(k.lanes, lane{next: noSlot, tail: noSlot})
	return Lane{k: k, id: int32(len(k.lanes))}
}

// ScheduleTagged is order-identical to Kernel.ScheduleTagged.
func (l Lane) ScheduleTagged(at Time, fn func(tag uint64), tag uint64) {
	k := l.k
	k.seq++
	i, s := k.newSlot(evTagged)
	s.tfn, s.tag = fn, tag
	k.laneAppend(l.id, at, k.seq, i)
}

// ScheduleReserved runs fn(tag) at the future instant at, ordered among
// that instant's events by a sequence number taken earlier from
// Kernel.ReserveSeq. A number must be used at most once. The instant must
// be strictly after now: events of the current instant with later numbers
// may already have run.
func (l Lane) ScheduleReserved(at Time, seq uint64, fn func(tag uint64), tag uint64) {
	k := l.k
	if at <= k.now {
		panic(fmt.Sprintf("sim: ScheduleReserved at %v is not after now (%v)", at, k.now))
	}
	i, s := k.newSlot(evTagged)
	s.tfn, s.tag = fn, tag
	k.laneAppend(l.id, at, seq, i)
}

// laneAppend queues slot i's event through lane id: at the lane's tail if
// the event is in the future and not before the entry already there, else
// as enqueue would.
func (k *Kernel) laneAppend(id int32, at Time, seq uint64, i int32) {
	if at <= k.now || id == 0 {
		k.enqueue(at, seq, i)
		return
	}
	ln, s := &k.lanes[id-1], &k.slots[i]
	if ln.tail == noSlot { // empty lane: the event is its head
		k.heapInsert(qkey{at: at, seq: seq, slot: i, lane: id})
	} else {
		tail := &k.slots[ln.tail]
		if keyLess(qkey{at: at, seq: seq}, qkey{at: tail.at, seq: tail.seq}) {
			k.laneFallbacks++
			k.heapInsert(qkey{at: at, seq: seq, slot: i})
			return
		}
		if ln.next == noSlot {
			ln.next = i // the tail is the head, whose pos is its heap index
		} else {
			tail.pos = i
		}
		s.pos = noSlot
		k.behind++
	}
	s.at, s.seq = at, seq
	ln.tail = i
	k.laneAppends++
}

// lanePop removes the heap root e, the head of a lane, and puts the lane's
// next entry, marked as the head, in its place: one sift down a heap that
// holds one entry per lane.
func (k *Kernel) lanePop(e qkey) {
	ln := &k.lanes[e.lane-1]
	n := ln.next
	if n == noSlot {
		ln.tail = noSlot
		k.heapRemove(0)
		return
	}
	s := &k.slots[n]
	ln.next = s.pos
	k.behind--
	k.siftDown(0, qkey{at: s.at, seq: s.seq, slot: n, lane: e.lane})
}

// pushAfter queues an Await delay's expiry for p at now + d under the
// next sequence number. Such events ride a lane per delay: the clock and
// the sequence counter only move forward, so a source that always adds the
// same d schedules in order. p remembers the lane of the delay it used
// last; a process polls at one period for its whole life.
func (k *Kernel) pushAfter(p *Proc, d time.Duration) {
	k.seq++
	i, s := k.newSlot(evAwait)
	s.p = p
	if p.laneDelay != d {
		p.laneDelay, p.lane = d, k.delayLane(d)
	}
	k.laneAppend(p.lane, k.now.Add(d), k.seq, i)
}

// delayLane returns the lane for events scheduled d ahead, making it on
// first use, or 0 (no lane) once maxDelayLanes delays have one.
func (k *Kernel) delayLane(d time.Duration) int32 {
	if d == 0 {
		return 0 // the FIFO's
	}
	for i := range k.delayLanes {
		dl := &k.delayLanes[i]
		if dl.id == 0 { // d's first use, and an entry left for it
			dl.d, dl.id = d, k.NewLane().id
		}
		if dl.d == d {
			return dl.id
		}
	}
	return 0
}

// newSlot takes a slot off the free list, or grows the slab by one, for an
// event of the given kind. The pointer is good until the next newSlot.
func (k *Kernel) newSlot(kind uint8) (int32, *slot) {
	i := k.freeSlot
	if i == noSlot {
		k.slots = append(k.slots, slot{})
		i = int32(len(k.slots) - 1)
	} else {
		k.freeSlot = k.slots[i].pos
	}
	s := &k.slots[i]
	s.kind = kind
	return i, s
}

// recycle puts slot i, its payload pointer already cleared, back on the
// free list.
func (k *Kernel) recycle(i int32) {
	k.slots[i].pos = k.freeSlot
	k.freeSlot = i
}

// push queues a new event of the given kind under the next sequence
// number and returns its slot for the caller to fill in the payload.
func (k *Kernel) push(at Time, kind uint8) *slot {
	k.seq++
	i, s := k.newSlot(kind)
	k.enqueue(at, k.seq, i)
	return s
}

// enqueue routes slot i's key to the same-instant FIFO or the future heap.
func (k *Kernel) enqueue(at Time, seq uint64, i int32) {
	if at <= k.now {
		// Same-instant fast path: append to the FIFO, skip the heap.
		k.slots[i].pos = ^int32(len(k.nowq))
		k.nowq = append(k.nowq, qkey{at: k.now, seq: seq, slot: i})
		return
	}
	k.heapInsert(qkey{at: at, seq: seq, slot: i})
}

// unqueue removes the key at pos (see slot.pos) from whichever queue holds
// it. A FIFO entry cannot be cut out of the middle, so it stays behind as
// a tombstone that the head skips over.
func (k *Kernel) unqueue(pos int32) {
	if pos >= 0 {
		k.heapRemove(int(pos))
		return
	}
	k.nowq[^pos].slot = noSlot
	k.dead++
	k.nowqSkipDead()
}

// nowqPop drops the FIFO head.
func (k *Kernel) nowqPop() {
	k.nowHead++
	k.nowqSkipDead()
}

// nowqSkipDead restores the invariant that the FIFO head is a live event.
// The backing array is reused once the queue drains, so steady-state
// same-instant traffic allocates nothing.
func (k *Kernel) nowqSkipDead() {
	for k.nowHead < len(k.nowq) && k.nowq[k.nowHead].slot == noSlot {
		k.nowHead++
		k.dead--
	}
	if k.nowHead == len(k.nowq) {
		k.nowq = k.nowq[:0]
		k.nowHead = 0
	}
}

// heapInsert adds e to the future-event heap.
func (k *Kernel) heapInsert(e qkey) {
	k.heap = append(k.heap, e)
	k.siftUp(len(k.heap)-1, e)
}

// heapRemove deletes the key at index i.
func (k *Kernel) heapRemove(i int) {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if i < n {
		k.heapPlace(i, last)
	}
}

// heapPlace puts e where index i's key was and restores heap order,
// whichever way e has to move.
func (k *Kernel) heapPlace(i int, e qkey) {
	if i > 0 && keyLess(e, k.heap[(i-1)/2]) {
		k.siftUp(i, e)
	} else {
		k.siftDown(i, e)
	}
}

// siftUp moves the hole at index i toward the root until e fits in it.
// Every key that moves tells its slot where it went.
func (k *Kernel) siftUp(i int, e qkey) {
	h, slots := k.heap, k.slots
	for i > 0 {
		p := (i - 1) / 2
		if !keyLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = e
	slots[e.slot].pos = int32(i)
}

// siftDown moves the hole at index i toward the leaves until e fits in it.
func (k *Kernel) siftDown(i int, e qkey) {
	h, slots := k.heap, k.slots
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && keyLess(h[r], h[c]) {
			c = r
		}
		if !keyLess(h[c], e) {
			break
		}
		h[i] = h[c]
		slots[h[i].slot].pos = int32(i)
		i = c
	}
	h[i] = e
	slots[e.slot].pos = int32(i)
}

// next returns the key of the globally next event in (time, seq) order,
// merging the FIFO fast path with the heap, and says which of the two
// holds it.
func (k *Kernel) next() (e qkey, fromHeap, ok bool) {
	fromHeap = len(k.heap) > 0
	if k.nowHead < len(k.nowq) {
		e = k.nowq[k.nowHead]
		if fromHeap && keyLess(k.heap[0], e) {
			return k.heap[0], true, true
		}
		return e, false, true
	}
	if fromHeap {
		return k.heap[0], true, true
	}
	return e, false, false
}

// nextAt returns the timestamp of the next pending event. ParKernel sizes
// its windows with it.
func (k *Kernel) nextAt() (Time, bool) {
	e, _, ok := k.next()
	return e.at, ok
}

// Timer is a re-armable one-shot event: at most one firing is ever
// queued, and arming it again moves that firing instead of adding a
// second. It is for the event a model keeps postponing or pulling forward
// — a processor-sharing machine's next completion moves on every submit
// and every retirement — where scheduling a fresh event each time and
// letting the superseded ones fire as no-ops would make most of the queue
// traffic dead weight.
//
// A Timer is owned by its user and meant to be embedded by value; Init it
// once, before anything else. Kernel.Close leaves every timer idle and
// re-armable.
type Timer struct {
	k    *Kernel
	fn   func()
	slot int32 // slab slot of the queued firing; noSlot while idle
}

// Init binds the timer, idle, to the kernel it fires on and to what it
// runs. fn executes in kernel context, like a Schedule callback, with the
// timer already idle, so it may re-arm.
func (t *Timer) Init(k *Kernel, fn func()) {
	t.k, t.fn, t.slot = k, fn, noSlot
}

// Arm sets the timer to fire at absolute virtual time at, replacing any
// firing still pending. It orders the firing exactly as ScheduleTagged
// would order a fresh event — it consumes one sequence number, and at <=
// now joins the current instant's FIFO — so a program that re-arms sees
// the same (time, seq) on every firing that does happen as one that pushed
// a new event each time and ignored the stale ones.
func (t *Timer) Arm(at Time) {
	k := t.k
	k.seq++
	i := t.slot
	if i == noSlot {
		var s *slot
		i, s = k.newSlot(evTimer)
		s.t, t.slot = t, i
		k.enqueue(at, k.seq, i)
		return
	}
	if pos := k.slots[i].pos; pos >= 0 && at > k.now {
		// The common case: a future firing moves to another future
		// instant. Re-key it where it sits and sift.
		k.heapPlace(int(pos), qkey{at: at, seq: k.seq, slot: i})
	} else {
		k.unqueue(pos)
		k.enqueue(at, k.seq, i)
	}
}

// Stop cancels the pending firing, if there is one. It consumes no
// sequence number.
func (t *Timer) Stop() {
	i := t.slot
	if i == noSlot {
		return
	}
	k := t.k
	k.unqueue(k.slots[i].pos)
	k.slots[i].t = nil
	k.recycle(i)
	t.slot = noSlot
}

// After runs fn after virtual duration d.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.Schedule(k.now.Add(d), fn)
}

// inject schedules fn at absolute time at from a ParKernel window
// barrier. Unlike Schedule it refuses to clamp past timestamps: a
// cross-shard delivery in the destination's past would be a causality
// violation — the lookahead contract (Send) exists precisely to make
// this impossible, so tripping here means a model charged less than the
// minimum propagation latency.
func (k *Kernel) inject(at Time, fn func()) {
	if at <= k.now {
		panic(fmt.Sprintf("sim: cross-shard delivery at %v is not after shard time %v (causality violation)", at, k.now))
	}
	k.push(at, evFn).fn = fn
}

// advanceTo moves the clock forward to t without executing anything
// (no-op if the clock is already at or past t). Used by ParKernel to
// leave all shards at a common instant after a bounded run.
func (k *Kernel) advanceTo(t Time) {
	if k.now < t {
		k.now = t
	}
}

// Every runs fn at t0 and then every period until it returns false or
// the simulation ends.
func (k *Kernel) Every(t0 Time, period time.Duration, fn func() bool) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	var tick func()
	at := t0
	tick = func() {
		if !fn() {
			return
		}
		at = at.Add(period)
		k.Schedule(at, tick)
	}
	k.Schedule(at, tick)
}

// worker is a pooled execution vehicle for simulated processes: one
// runtime coroutine and one Proc struct, created together and reused
// across process lifetimes. The coroutine runs loop; the kernel switches
// into it with next, and it switches back with yield — from park when the
// body blocks (false), from loop when the body returned (true) — so a
// process switch stays on the kernel's own thread and never goes through
// the Go scheduler. next and stop belong to the host goroutine that is
// driving the kernel at that moment (goroutines may take turns, as
// ParKernel's do across windows); a process must never call them.
type worker struct {
	own      Proc          // the process Spawn puts on this worker
	p        *Proc         // the process running or last run: &own, or a SpawnAwait process bound by proceed
	fn       func(p *Proc) // next body to run
	next     func() (done, ok bool)
	stop     func()
	yield    func(done bool) bool
	panicVal any // what the body panicked with; the coroutine has ended
}

// loop is the coroutine: one body per resume, for as long as bodies
// return normally and the kernel does not stop the worker.
func (w *worker) loop(yield func(done bool) bool) {
	w.yield = yield
	for w.runOne() && yield(true) {
	}
}

// closeUnwind is what park panics with once Kernel.Close has stopped the
// coroutine: it unwinds the body, running its deferred functions, up to
// runOne. It is not runtime.Goexit because iter.Pull re-raises a Goexit in
// the caller of next or stop, which is the host goroutine.
type closeUnwind struct{}

// runOne executes one process lifetime and reports whether the worker
// may be reused. A panic in the body is kept for the kernel to report,
// and the coroutine ends: its internal state is suspect, so the pool
// never sees it again.
func (w *worker) runOne() (ok bool) {
	p, fn := w.p, w.fn
	w.fn = nil
	defer func() {
		if r := recover(); r != nil && r != any(closeUnwind{}) {
			w.panicVal = r
		}
	}()
	fn(p)
	return true
}

// getWorker pops a parked worker off the free list or creates one.
func (k *Kernel) getWorker() *worker {
	if n := len(k.free); n > 0 {
		w := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return w
	}
	k.created++
	w := &worker{}
	w.own = Proc{k: k, w: w}
	w.next, w.stop = iter.Pull(w.loop)
	k.workers = append(k.workers, w)
	return w
}

// Spawn starts a new simulated process running fn. The process begins
// executing at the current virtual time, after the caller yields back to
// the kernel.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := k.spawnProc(fn)
	p.name = name
	return p
}

// SpawnLazy is Spawn with deferred naming: nameFn runs only if the
// process name is actually observed (a panic message, debugging). Hot
// spawn paths use it to avoid a fmt.Sprintf per process.
func (k *Kernel) SpawnLazy(nameFn func() string, fn func(p *Proc)) *Proc {
	p := k.spawnProc(fn)
	p.nameFn = nameFn
	return p
}

func (k *Kernel) spawnProc(fn func(p *Proc)) *Proc {
	w := k.getWorker()
	p := &w.own
	w.p, w.fn = p, fn
	k.nextPID++
	p.ID = k.nextPID
	p.name, p.nameFn = "", nil
	p.stage = nil // a stage left by an Await that Close cut short
	p.finished = false
	// parkSeq deliberately survives reuse: it stays monotonic so waiter
	// handles from the previous lifetime remain stale.
	k.live++
	k.push(k.now, evStart).p = p
	return p
}

// SpawnAwait is SpawnLazy for a process that starts by waiting. It is
// event-for-event identical to
//
//	k.SpawnLazy(nameFn, func(p *Proc) { p.Await(w, stage); fn(p) })
//
// — same PID, same events under the same sequence numbers, same Live and
// Blocked — but until stage returns Resume the process is its Proc and
// nothing else: the worker is bound then, so a daemon whose condition
// never arises in a run (the reactor of a calm machine) never owns a
// coroutine.
func (k *Kernel) SpawnAwait(nameFn func() string, w Wait, stage func() Wait, fn func(p *Proc)) *Proc {
	k.nextPID++
	p := &Proc{ID: k.nextPID, k: k, nameFn: nameFn, stage: stage, first: w, body: fn}
	k.live++
	k.unbound++
	k.push(k.now, evStartAwait).p = p
	return p
}

// Close ends the simulation and releases every coroutine the kernel
// owns. A coroutine that is neither finished nor stopped is never
// reclaimed, so code that churns through many kernels (benchmark loops,
// experiment sweeps, scenario runs) must Close each kernel when done with
// it. Pooled workers retire; processes still parked mid-body (daemons
// such as reactors, servers and ping loops, or anything waiting on a
// condition that never fired) are unwound — every park, including one in
// a deferred function, panics with closeUnwind — so their deferred
// functions run; pending events are dropped, since they may refer to the
// processes just unwound. The kernel remains usable afterwards: the clock
// keeps its value and new spawns create fresh workers. Close must be
// called from the host goroutine, never from an event or a process.
func (k *Kernel) Close() {
	// A deferred function run by the unwinding may Spawn: only onto a new
	// worker, which the loop below then reaches.
	clear(k.free)
	k.free = k.free[:0]
	for i := 0; i < len(k.workers); i++ {
		w := k.workers[i]
		p := w.p
		k.curr = p // for a body parked mid-way: park's guard must let it unwind
		w.stop()
		k.curr = nil
		if !p.finished { // unwound, or spawned and never started
			p.finished = true
			k.live--
		}
		if w.panicVal != nil {
			panic(fmt.Sprintf("sim: process %q panicked while Close unwound it: %v", p.label(), w.panicVal))
		}
	}
	k.live -= k.unbound // SpawnAwait processes whose stage never said Resume
	k.unbound = 0
	clear(k.workers)
	k.workers = k.workers[:0]
	for i := range k.slots {
		if t := k.slots[i].t; t != nil {
			t.slot = noSlot // armed: idle again, and re-armable
		}
	}
	clear(k.slots)
	k.slots, k.freeSlot = k.slots[:0], noSlot
	k.heap = k.heap[:0]
	k.nowq, k.nowHead, k.dead = k.nowq[:0], 0, 0
	for i := range k.lanes {
		k.lanes[i] = lane{next: noSlot, tail: noSlot} // empty; handles stay good
	}
	k.behind = 0
	k.blocked = 0
}

// WorkersCreated reports how many workers (coroutines) the kernel has
// ever created; the gap between this and the number of processes spawned
// is the pool's hit count plus the SpawnAwait processes still waiting.
func (k *Kernel) WorkersCreated() uint64 { return k.created }

// Switches reports how many times the kernel has handed the host thread
// to a process: its start, and every resume after a park. An Await stage
// that does not return Resume is not one. Like QueueStats it describes the
// simulator, not the simulation, and belongs in no report.
func (k *Kernel) Switches() uint64 { return k.switches }

// resumeAndWait transfers control to p and returns when p parks or
// finishes. It must only be called from kernel context.
func (k *Kernel) resumeAndWait(p *Proc) {
	if p.finished {
		return
	}
	w := p.w
	k.curr = p
	k.switches++
	done, ok := w.next()
	k.curr = nil
	switch {
	case !ok:
		// The body panicked and the coroutine ended; drop the worker on
		// the floor rather than pooling it in an unknown state.
		p.finished = true
		k.live--
		k.forget(w)
		panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.label(), k.now, w.panicVal))
	case done:
		p.finished = true
		k.live--
		k.free = append(k.free, w)
	default:
		k.blocked++
	}
}

// forget drops a worker whose coroutine ended from the live list, so
// Close does not try to stop it.
func (k *Kernel) forget(w *worker) {
	if i := slices.Index(k.workers, w); i >= 0 {
		k.workers = slices.Delete(k.workers, i, i+1)
	}
}

// await queues p's wait w — p as a waiter on a Cond, or a delay on the
// lane of its length — and reports false if w is Resume.
func (k *Kernel) await(p *Proc, w Wait) bool {
	switch {
	case w.c != nil:
		w.c.add(p.prepark())
	case w.d >= 0:
		k.pushAfter(p, w.d)
	default:
		return false
	}
	return true
}

// proceed moves p, parked and not counted blocked, on to w in kernel
// context, in the event that ended its last wait: into its next wait, or —
// w being Resume — out of its Await, bound to a worker first if it is a
// SpawnAwait process that never ran, and then it reports true: the caller
// resumes p within this same event. (The caller, not proceed: a frame
// between step and the coroutine switch costs a mispredicted return on
// every switch back, ~15 ns an RPC.)
func (k *Kernel) proceed(p *Proc, w Wait) (resume bool) {
	if k.await(p, w) {
		k.blocked++
		return false
	}
	p.stage = nil
	if p.w == nil {
		w := k.getWorker()
		w.p, w.fn, p.w, p.body = p, p.body, w, nil
		k.unbound--
	}
	return true
}

// wake schedules p to resume at the current virtual time.
func (k *Kernel) wake(p *Proc) {
	k.blocked--
	k.push(k.now, evResume).p = p
}

// step executes the next pending event if it is due at or before limit,
// and reports whether it did. It is the kernel's one loop body: Step, Run
// and RunUntil differ only in the limit and in who keeps calling.
func (k *Kernel) step(limit Time) bool {
	e, fromHeap, ok := k.next()
	if !ok || e.at > limit {
		return false
	}
	if !fromHeap {
		k.nowqPop()
	} else if e.lane != 0 {
		k.lanePop(e)
	} else {
		k.heapRemove(0)
	}
	if e.at > k.now {
		k.now = e.at
	}
	k.processed++

	// The payload leaves its slot, and the slot goes back on the free
	// list, before anything runs: the event may schedule, which may reuse
	// the slot or move the slab.
	switch s := &k.slots[e.slot]; s.kind {
	case evFn:
		fn := s.fn
		s.fn = nil
		k.recycle(e.slot)
		fn()
	case evTagged:
		fn, tag := s.tfn, s.tag
		s.tfn = nil
		k.recycle(e.slot)
		fn(tag)
	case evTimer:
		t := s.t
		s.t = nil
		k.recycle(e.slot)
		t.slot = noSlot // idle before it fires: fn may re-arm
		t.fn()
	case evAwait:
		k.blocked--
		fallthrough
	case evResume:
		if p := k.takeProc(e.slot); p.stage == nil || k.proceed(p, p.stage()) {
			k.resumeAndWait(p)
		}
	case evWakeParked:
		k.blocked--
		k.resumeAndWait(k.takeProc(e.slot))
	case evStart:
		k.resumeAndWait(k.takeProc(e.slot))
	case evStartAwait:
		if p := k.takeProc(e.slot); k.proceed(p, p.first) {
			k.resumeAndWait(p)
		}
	}
	return true
}

// takeProc empties and recycles the slot of a process event.
func (k *Kernel) takeProc(i int32) *Proc {
	s := &k.slots[i]
	p := s.p
	s.p = nil
	k.recycle(i)
	return p
}

// maxTime is a limit no event is past.
const maxTime = Time(math.MaxInt64)

// Step executes the next pending event. It reports false when the event
// queue is empty.
func (k *Kernel) Step() bool { return k.step(maxTime) }

// Run executes events until the queue drains or Stop is called. It
// returns the final virtual time.
func (k *Kernel) Run() Time {
	k.stopFlag = false
	for !k.stopFlag && k.step(maxTime) {
	}
	return k.now
}

// RunUntil executes events with timestamps up to and including t, then
// advances the clock to t. Events scheduled after t remain queued.
func (k *Kernel) RunUntil(t Time) Time {
	k.stopFlag = false
	for !k.stopFlag && k.step(t) {
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Stop makes the innermost Run or RunUntil return after the current
// event completes. It may be called from events or simulated processes.
func (k *Kernel) Stop() { k.stopFlag = true }

// Proc is a simulated process: a coroutine whose execution interleaves
// deterministically with all other simulated processes under kernel
// control. All blocking methods must be called only from the process's
// own body.
//
// Proc structs are pooled along with their workers: once a process
// finishes, its struct may be recycled for a later Spawn with a new ID.
// Holding a *Proc past the process's completion and calling blocking
// methods on it is a bug (and now panics via the park guard); waiter
// handles remain safe because park generations are monotonic across
// reuse.
type Proc struct {
	ID int64
	k  *Kernel
	w  *worker // nil while a SpawnAwait process is still waiting

	// Lazy naming: name is computed from nameFn the first time Name is
	// called, so hot spawn paths never pay for a formatted name that
	// nobody looks at.
	name   string
	nameFn func() string

	// Park-cycle state for waiter handles (see prepark): parkSeq
	// identifies the current cycle and parkWoken, below, records whether
	// some waker already won it.
	parkSeq uint64

	// The stage of the Await the process is in, nil outside one; and for
	// a SpawnAwait process, its first wait and the body a worker runs once
	// a stage says Resume.
	stage func() Wait
	first Wait
	body  func(p *Proc)

	// The delay of the process's last Await delay and that delay's lane
	// (see pushAfter). The zero value is right: delay 0 has no lane.
	laneDelay time.Duration
	lane      int32

	// The flags sit in the lane's word: a Proc is allocated by the
	// thousand (one per polled reactor), and a word apiece would cost each
	// of them a size class.
	parkWoken bool
	finished  bool
}

// label returns the process name, computing it on first use when the
// process was spawned with SpawnLazy.
func (p *Proc) label() string {
	if p.name == "" && p.nameFn != nil {
		p.name = p.nameFn()
		p.nameFn = nil
	}
	if p.name == "" {
		return fmt.Sprintf("proc-%d", p.ID)
	}
	return p.name
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park yields to the kernel until some other party wakes this process.
func (p *Proc) park() {
	if p.k.curr != p {
		panic(fmt.Sprintf(
			"sim: blocking call on process %q from outside its own context: fast handlers and kernel events must not block (sleep, lock, channel ops)",
			p.label()))
	}
	if !p.w.yield(false) {
		panic(closeUnwind{}) // Kernel.Close stopped the coroutine
	}
}

// Sleep suspends the process for virtual duration d.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.push(k.now.Add(d), evWakeParked).p = p
	p.park()
}

// Wait is one step of an Await: After(d), On(c) or Resume.
type Wait struct {
	c *Cond
	d time.Duration // After's delay; -1 for On and Resume
}

// Resume ends an Await: the process carries on.
var Resume = Wait{d: -1}

// After waits out virtual duration d, as Sleep(d) does.
func After(d time.Duration) Wait { return Wait{d: max(d, 0)} }

// On waits for c to be signaled, as c.Wait does. On(nil) is Resume.
func On(c *Cond) Wait { return Wait{c: c, d: -1} }

// Await parks the process in w and, each time a wait ends, runs stage in
// kernel context instead of resuming the process: the process waits again
// on the Wait the stage returns, and resumes once the stage returns
// Resume. It is event-for-event identical to
//
//	for w != Resume { wait(w); w = stage() }
//
// where to wait After(d) is p.Sleep(d) and to wait On(c) is c.Wait(p) —
// each stage runs in the event, and under the sequence number, that would
// have resumed the loop, and whatever it schedules is stamped as the loop
// would have stamped it — but the process is handed the host thread once,
// however many waits it goes through: a poller re-checking an idle queue,
// a caller starting its RPC after the send overhead, a worker taking its
// next unit off a queue and submitting it. Delays ride the lane of their
// length (see Lane), so a fleet polling at one period is one heap entry.
//
// The stage may do what an event may: schedule, spawn, wake. It must not
// block (a blocking call from it hits the usual outside-its-own-context
// panic), and while it runs the process is a waiter on nothing, so a stage
// checks state before naming a Cond: signaling it from inside the stage
// wakes nobody. Build the stage once per process or pooled object, not
// once per call, to keep waiting allocation-free.
func (p *Proc) Await(w Wait, stage func() Wait) {
	if p.k.await(p, w) {
		p.stage = stage
		p.park()
	}
}

// SleepUntil suspends the process until absolute virtual time t.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t.Sub(p.k.now))
}

// Yield lets every other event and process scheduled for the current
// instant run before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// waiter is a one-shot wake handle for one park cycle of a process.
// Primitives (channels, mutexes, timeouts) register a waiter before
// parking so that multiple potential wakers (for example, a sender and
// a timeout) race safely: only the first wake resumes the process.
//
// Waiters are values, not allocations: the handle is (process,
// park-cycle generation), and the live cycle state lives in the Proc.
// A handle from an earlier cycle — say, a timeout that fires after its
// process was woken by a sender and parked somewhere new — sees a
// generation mismatch and becomes inert.
type waiter struct {
	p   *Proc
	gen uint64
}

// prepark opens a new park cycle and returns its wake handle. The
// caller must subsequently call park exactly once; any number of
// parties may call wake on copies of the handle.
func (p *Proc) prepark() waiter {
	p.parkSeq++
	p.parkWoken = false
	return waiter{p: p, gen: p.parkSeq}
}

// woken reports whether this handle can no longer wake its process:
// either some waker already won this park cycle, or the process has
// moved on to a later cycle and the handle is stale.
func (w waiter) woken() bool {
	return w.gen != w.p.parkSeq || w.p.parkWoken
}

// wake resumes the parked process if it has not been woken already. It
// reports whether this call was the one that woke it. Safe to call from
// kernel context or from another simulated process.
func (w waiter) wake() bool {
	if w.woken() {
		return false
	}
	w.p.parkWoken = true
	w.p.k.wake(w.p)
	return true
}
