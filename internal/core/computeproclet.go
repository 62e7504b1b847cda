package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// TaskFn is one unit of work executed by a compute proclet. It runs on
// a proclet thread, so its Compute calls follow the proclet across
// migrations.
type TaskFn func(tc *TaskCtx)

// task is one queued unit: fn, run on the worker's thread (work == 0, what
// Run enqueues); work of compute followed by fn in kernel context (what
// RunCompute enqueues); or an invocation followed by its continuation in
// kernel context (call, what RunCall enqueues).
type task struct {
	fn   TaskFn
	work time.Duration
	call *call
}

// call is a RunCall task's arguments, pooled on the System so that the
// queue entry stays three words.
type call struct {
	target proclet.ID
	method string
	arg    proclet.Msg
	then   CallFn
}

// CallFn continues a RunCall task with the invocation's reply or error.
type CallFn func(tc *TaskCtx, res proclet.Msg, err error)

// TaskCtx gives a running task access to its execution environment.
type TaskCtx struct {
	thread *proclet.Thread
	cp     *ComputeProclet
}

// Proc returns the simulated process executing the task.
func (tc *TaskCtx) Proc() *sim.Proc { return tc.thread.Proc() }

// Compute burns d of single-core CPU on the proclet's current machine,
// following migrations.
func (tc *TaskCtx) Compute(d time.Duration) { tc.thread.Compute(d) }

// Machine returns the machine currently hosting the compute proclet.
func (tc *TaskCtx) Machine() cluster.MachineID { return tc.cp.pr.Location() }

// ComputeProclet returns the proclet executing the task.
func (tc *TaskCtx) ComputeProclet() *ComputeProclet { return tc.cp }

// ComputeProclet is a resource proclet specialized for computation
// (§3.1): a task queue drained by worker threads, with an almost-empty
// heap so migration is fast. It exposes Run(lambda); oversized proclets
// split by dividing the task queue (§3.3).
type ComputeProclet struct {
	sys  *System
	pr   *proclet.Proclet
	pool *Pool // nil for standalone proclets

	// queue[qHead:] holds pending tasks; popping advances qHead so the
	// backing array's capacity is reused across drain cycles instead of
	// being abandoned by reslicing from the front.
	queue    []task
	qHead    int
	qCond    sim.Cond
	workers  int
	running  int // tasks currently executing
	stopping bool
	idle     sim.Cond // signaled when queue empty and nothing running

	executed int64

	// Queueing-delay telemetry (off by default; enabled when the system
	// samples telemetry). qTimes mirrors queue index-for-index with each
	// task's enqueue time; popFront folds the waits into waitSumNS, and
	// sampleQueueDelayMS drains the accumulator per sampling interval.
	delayTrack bool
	qTimes     []sim.Time
	waitSumNS  int64
	waitN      int64
}

// enableDelayTracking starts queue-delay accounting, backfilling
// already-enqueued tasks with the current time.
func (cp *ComputeProclet) enableDelayTracking() {
	if cp.delayTrack {
		return
	}
	cp.delayTrack = true
	now := cp.sys.K.Now()
	cp.qTimes = make([]sim.Time, len(cp.queue))
	for i := range cp.qTimes {
		cp.qTimes[i] = now
	}
}

// sampleQueueDelayMS returns the mean queueing delay (enqueue to
// dequeue) of tasks popped since the previous sample, in milliseconds,
// and resets the accumulator.
func (cp *ComputeProclet) sampleQueueDelayMS() float64 {
	if cp.waitN == 0 {
		return 0
	}
	mean := float64(cp.waitSumNS) / float64(cp.waitN) / 1e6
	cp.waitSumNS, cp.waitN = 0, 0
	return mean
}

// NewComputeProcletOn creates a compute proclet with the given number
// of worker threads on an explicit machine.
func NewComputeProcletOn(sys *System, name string, m cluster.MachineID, workers int) (*ComputeProclet, error) {
	if workers <= 0 {
		panic("core: compute proclet needs at least one worker")
	}
	pr, err := sys.Runtime.Spawn(name, m, sys.cfg.ComputeProcletHeap)
	if err != nil {
		return nil, err
	}
	cp := &ComputeProclet{sys: sys, pr: pr, workers: workers}
	pr.Data = cp
	sys.Sched.register(pr, KindCompute)
	sys.registerComputeTelemetry(cp)
	for i := 0; i < workers; i++ {
		pr.SpawnThread("worker", cp.workerLoop)
	}
	return cp, nil
}

// registerComputeTelemetry adds the proclet's queue gauges to the
// telemetry registry (no-op when telemetry is disabled). machine -1:
// compute proclets move, so their series live on the control plane
// track.
func (s *System) registerComputeTelemetry(cp *ComputeProclet) {
	if s.Tel == nil {
		return
	}
	cp.enableDelayTracking()
	name := cp.pr.Name()
	s.Tel.Register("proclet."+name+".qdelay_ms", -1, cp.sampleQueueDelayMS)
	s.Tel.Register("proclet."+name+".qlen", -1, func() float64 {
		return float64(cp.queueLen())
	})
}

// newComputeProclet creates a compute proclet, letting the scheduler
// pick the least-loaded machine.
func (s *System) newComputeProclet(name string, workers int) (*ComputeProclet, error) {
	m, err := s.Sched.placeCompute()
	if err != nil {
		return nil, err
	}
	return NewComputeProcletOn(s, name, m, workers)
}

// worker is one worker thread's state between two parks: the task it
// took off the queue, whether that task's compute is still in flight, and
// a call task's invocation.
type worker struct {
	cp        *ComputeProclet
	thread    *proclet.Thread
	ctx       TaskCtx // one per thread: both fields are invariant for its lifetime
	cur       task
	computing bool
	inv       *proclet.Invocation
}

// workerLoop is a worker thread's body. Everything that cannot block —
// waiting for a task, taking it, a compute task's or a call task's whole
// life, the finish accounting — is next, which the kernel runs as the
// stage of one Await; the thread's process is resumed only to run a
// blocking task or a local blocking method a call reached, or to exit.
func (cp *ComputeProclet) workerLoop(t *proclet.Thread) {
	w := &worker{cp: cp, thread: t, ctx: TaskCtx{thread: t, cp: cp}}
	stage := w.next
	for {
		t.Proc().Await(w.next(), stage)
		switch {
		case w.inv != nil:
			w.inv.Exec(t.Proc())
		case w.cur.fn == nil:
			return
		default:
			w.cur.fn(&w.ctx)
			w.finish()
		}
	}
}

// next advances the worker as far as it can go without blocking and
// returns the wait it has to park in, or Resume to hand over to the
// thread's process: w.cur is a blocking task, taken and counted as
// running; or w.inv needs the process for a local blocking method; or
// w.cur is empty because the proclet is stopping and the worker is done.
func (w *worker) next() sim.Wait {
	cp := w.cp
	for {
		if inv := w.inv; inv != nil {
			if wt := inv.Step(); wt != sim.Resume || inv.NeedsProc() {
				return wt
			}
			w.called()
		}
		if w.computing {
			if c := w.thread.ComputeStep(); c != nil {
				return sim.On(c)
			}
			w.computing = false
			w.cur.fn(&w.ctx)
			w.finish()
		}
		if cp.queueLen() == 0 {
			if cp.stopping {
				w.cur = task{}
				return sim.Resume
			}
			// Idle worker: steal from a pool sibling before parking.
			if cp.pool != nil && cp.pool.stealFor(cp) {
				continue
			}
			return sim.On(&cp.qCond)
		}
		w.cur = cp.popFront()
		cp.running++
		if c := w.cur.call; c != nil {
			// Routed from where the proclet is now, as its own call.
			w.inv = cp.sys.Runtime.Begin(cp.pr.Location(), cp.pr.ID(), c.target, c.method, c.arg)
			continue
		}
		if w.cur.work == 0 {
			return sim.Resume
		}
		w.thread.ComputeBegin(w.cur.work)
		w.computing = true
	}
}

// called ends the call task in hand: its continuation, in the event the
// reply or the error landed in, then the finish accounting.
func (w *worker) called() {
	res, err := w.inv.End()
	c := w.cur.call
	then := c.then
	w.inv, w.cur = nil, task{}
	w.cp.sys.putCall(c)
	then(&w.ctx, res, err)
	w.finish()
}

// finish accounts for the task the worker just ran.
func (w *worker) finish() {
	cp := w.cp
	cp.running--
	cp.executed++
	if cp.running == 0 && cp.queueLen() == 0 {
		cp.idle.Broadcast()
	}
}

// queueSlack is the dead prefix popFront tolerates before it compacts.
const queueSlack = 32

// popFront removes and returns the oldest pending task. The drained
// prefix is reused once the queue empties, and compacted away once it is
// queueSlack long and at least half the slice — a proclet fed by tasks
// that re-enqueue themselves never empties — so the queue's storage is
// bounded by its live entries and steady-state enqueueing allocates
// nothing.
func (cp *ComputeProclet) popFront() task {
	t := cp.queue[cp.qHead]
	cp.queue[cp.qHead] = task{} // release the closure for GC
	if cp.delayTrack {
		cp.waitSumNS += int64(cp.sys.K.Now().Sub(cp.qTimes[cp.qHead]))
		cp.waitN++
	}
	cp.qHead++
	if cp.qHead == len(cp.queue) {
		cp.queue = cp.queue[:0]
		if cp.delayTrack {
			cp.qTimes = cp.qTimes[:0]
		}
		cp.qHead = 0
	} else if cp.qHead >= queueSlack && cp.qHead*2 >= len(cp.queue) {
		n := copy(cp.queue, cp.queue[cp.qHead:])
		cp.queue = cp.queue[:n]
		if cp.delayTrack {
			copy(cp.qTimes, cp.qTimes[cp.qHead:])
			cp.qTimes = cp.qTimes[:n]
		}
		cp.qHead = 0
	}
	return t
}

// Run enqueues a task (§3.1's Run(lambda)). Safe to call from kernel
// context or any simulated process; enqueueing itself is free. Tasks
// submitted to a pool member that is being merged away are redirected
// to the pool's surviving members.
func (cp *ComputeProclet) Run(fn TaskFn) { cp.enqueue(task{fn: fn}) }

// RunCompute enqueues "burn work of single-core CPU on the proclet's
// machine, following migrations, then call fn": Run of a task that starts
// with tc.Compute(work), with the rest of the task carried as data. fn
// runs in kernel context, in the event in which the compute finished, and
// so must not block — no Compute, Call, Sleep, lock or channel operation;
// one that tries hits the kernel's outside-its-own-context panic. It may
// do what an event may: read and write simulated state, enqueue tasks,
// schedule, spawn and wake. A worker runs such a task without its process
// ever being switched in, which is what keeps a fine-grained unit cheap;
// a task that has to block after its compute goes through Run. work must
// be positive.
func (cp *ComputeProclet) RunCompute(work time.Duration, fn TaskFn) {
	if work <= 0 {
		panic("core: RunCompute requires positive work")
	}
	cp.enqueue(task{fn: fn, work: work})
}

// RunCall enqueues "invoke method on the target proclet, then call then
// with the reply or the error": Run of a task that starts with the
// blocking invocation, with the rest of the task carried as data. The
// invocation routes from the machine the proclet is on when a worker
// takes the task, as the proclet's own call. then has RunCompute's fn's
// contract — it must not block, and may do what an event may — and runs
// in the event in which the reply or the error landed. A worker runs such
// a task without its process being switched in, unless the method turns
// out to be a blocking one on this machine: that, and then then, run on
// the worker's process.
func (cp *ComputeProclet) RunCall(target proclet.ID, method string, arg proclet.Msg, then CallFn) {
	c := cp.sys.getCall()
	c.target, c.method, c.arg, c.then = target, method, arg, then
	cp.enqueue(task{call: c})
}

func (cp *ComputeProclet) enqueue(t task) {
	if cp.stopping {
		if cp.pool != nil {
			cp.pool.enqueue(t)
			return
		}
		panic(fmt.Sprintf("core: Run on stopping compute proclet %s", cp.pr.Name()))
	}
	cp.queue = append(cp.queue, t)
	if cp.delayTrack {
		cp.qTimes = append(cp.qTimes, cp.sys.K.Now())
	}
	cp.qCond.Signal()
}

// Proclet returns the underlying proclet.
func (cp *ComputeProclet) Proclet() *proclet.Proclet { return cp.pr }

// ID returns the underlying proclet ID.
func (cp *ComputeProclet) ID() proclet.ID { return cp.pr.ID() }

// Location returns the current machine.
func (cp *ComputeProclet) Location() cluster.MachineID { return cp.pr.Location() }

// queueLen returns pending (not yet started) tasks.
func (cp *ComputeProclet) queueLen() int { return len(cp.queue) - cp.qHead }

// Workers returns the worker thread count.
func (cp *ComputeProclet) Workers() int { return cp.workers }

// Demand reports the proclet's CPU demand in cores for the scheduler:
// the number of workers that have work to do.
func (cp *ComputeProclet) Demand() float64 {
	want := cp.running + cp.queueLen()
	if want > cp.workers {
		want = cp.workers
	}
	return float64(want)
}

// WaitIdle blocks until the proclet has no queued or running tasks.
func (cp *ComputeProclet) WaitIdle(p *sim.Proc) {
	for cp.queueLen() > 0 || cp.running > 0 {
		cp.idle.Wait(p)
	}
}

// stealHalf removes the back half of the pending queue (the newest
// tasks) and returns it; used when splitting.
func (cp *ComputeProclet) stealHalf() []task {
	n := cp.queueLen() / 2
	if n == 0 {
		return nil
	}
	stolen := make([]task, n)
	copy(stolen, cp.queue[len(cp.queue)-n:])
	cp.queue = cp.queue[:len(cp.queue)-n]
	if cp.delayTrack {
		cp.qTimes = cp.qTimes[:len(cp.queue)]
	}
	return stolen
}

// drainAll removes and returns the entire pending queue (merging).
func (cp *ComputeProclet) drainAll() []task {
	q := cp.queue[cp.qHead:]
	cp.queue, cp.qHead = nil, 0
	cp.qTimes = nil
	return q
}

// shutdown drains running work and destroys the proclet. Pending tasks
// must already have been moved elsewhere.
func (cp *ComputeProclet) shutdown(p *sim.Proc) error {
	if cp.queueLen() > 0 {
		panic("core: shutdown with pending tasks")
	}
	cp.stopping = true
	cp.qCond.Broadcast()
	for cp.running > 0 {
		cp.idle.Wait(p)
	}
	cp.sys.Sched.unregister(cp.pr.ID())
	return cp.sys.Runtime.Destroy(cp.pr.ID())
}

// Pool is an elastic group of compute proclets behind a single Run
// interface. Growing splits the busiest member's task queue into a new
// proclet (placed only where idle CPU exists, per §3.3); shrinking
// merges a member's queue into its siblings and retires it.
type Pool struct {
	sys        *System
	name       string
	workersPer int
	minSize    int
	maxSize    int
	members    []*ComputeProclet
	nextName   int
	rr         int

	// Splits and Merges count adaptation actions; Steals counts tasks
	// moved by idle workers stealing from loaded siblings.
	Splits int64
	Merges int64
	Steals int64
}

// NewPool creates a pool with `initial` members of workersPer threads
// each. minSize/maxSize bound adaptation (maxSize<=0 means unbounded).
func (s *System) NewPool(name string, workersPer, initial, minSize, maxSize int) (*Pool, error) {
	if initial < 1 || workersPer < 1 {
		panic("core: pool needs at least one member and one worker")
	}
	if minSize < 1 {
		minSize = 1
	}
	pl := &Pool{sys: s, name: name, workersPer: workersPer, minSize: minSize, maxSize: maxSize}
	for i := 0; i < initial; i++ {
		if _, err := pl.addMember(); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

func (pl *Pool) addMember() (*ComputeProclet, error) {
	pl.nextName++
	cp, err := pl.sys.newComputeProclet(fmt.Sprintf("%s-%d", pl.name, pl.nextName), pl.workersPer)
	if err != nil {
		return nil, err
	}
	cp.pool = pl
	pl.members = append(pl.members, cp)
	return cp, nil
}

// Size returns the current member count.
func (pl *Pool) Size() int { return len(pl.members) }

// Members returns the member proclets (not a copy).
func (pl *Pool) Members() []*ComputeProclet { return pl.members }

// Run dispatches a task to the member with the shortest backlog,
// breaking ties round-robin.
func (pl *Pool) Run(fn TaskFn) { pl.enqueue(task{fn: fn}) }

func (pl *Pool) enqueue(t task) {
	best := -1
	bestLen := int(^uint(0) >> 1)
	n := len(pl.members)
	for i := 0; i < n; i++ {
		idx := (pl.rr + i) % n
		if l := pl.members[idx].queueLen() + pl.members[idx].running; l < bestLen {
			best, bestLen = idx, l
		}
	}
	pl.rr = (pl.rr + 1) % n
	pl.members[best].enqueue(t)
}

// WaitIdle blocks until every member is idle.
func (pl *Pool) WaitIdle(p *sim.Proc) {
	for _, m := range pl.members {
		m.WaitIdle(p)
	}
}

// Grow splits the pool: a new compute proclet is created on a machine
// with idle CPU and takes half the busiest member's pending queue. It
// reports false (without error) when the cluster has no spare CPU —
// the paper's guard against creating excessive compute proclets.
func (pl *Pool) Grow() (bool, error) {
	if pl.maxSize > 0 && len(pl.members) >= pl.maxSize {
		return false, nil
	}
	if _, err := pl.sys.Sched.placeComputeIdle(); err != nil {
		return false, nil // no idle CPU anywhere: do not split
	}
	victim := pl.busiest()
	var sp obs.SpanID
	if pl.sys.Obs != nil {
		sp = pl.sys.Obs.Start(obs.KindSplit, pl.name, int(victim.Location()), 0)
	}
	cp, err := pl.addMember()
	if err != nil {
		if pl.sys.Obs != nil {
			pl.sys.Obs.SetErr(sp, err)
			pl.sys.Obs.End(sp)
		}
		return false, err
	}
	for _, t := range victim.stealHalf() {
		cp.enqueue(t)
	}
	pl.Splits++
	pl.sys.Trace.Emitf(pl.sys.K.Now(), obs.KindSplit, pl.name,
		int(victim.Location()), int(cp.Location()), "members=%d", len(pl.members))
	if pl.sys.Obs != nil {
		pl.sys.Obs.SetRoute(sp, int(victim.Location()), int(cp.Location()))
		pl.sys.Obs.Num(sp, "members", float64(len(pl.members)))
		pl.sys.Obs.End(sp)
	}
	return true, nil
}

// Shrink merges the pool: the least-loaded member's pending tasks move
// to its siblings immediately; the member itself retires in the
// background once its running tasks drain, so a controller can issue
// several merges per tick without serializing on task completions.
// It reports false when the pool is at its minimum size.
func (pl *Pool) Shrink() (bool, error) {
	if len(pl.members) <= pl.minSize {
		return false, nil
	}
	vIdx := pl.emptiestIdx()
	victim := pl.members[vIdx]
	pl.members = append(pl.members[:vIdx], pl.members[vIdx+1:]...)
	pending := victim.drainAll()
	for _, t := range pending {
		pl.enqueue(t)
	}
	loc := victim.Location()
	var sp obs.SpanID
	if pl.sys.Obs != nil {
		sp = pl.sys.Obs.Start(obs.KindMerge, pl.name, int(loc), 0)
		pl.sys.Obs.Num(sp, "members", float64(len(pl.members)))
		pl.sys.Obs.Num(sp, "moved", float64(len(pending)))
	}
	pl.sys.K.Spawn("pool-retire", func(rp *sim.Proc) {
		victim.shutdown(rp)
	})
	pl.Merges++
	pl.sys.Trace.Emitf(pl.sys.K.Now(), obs.KindMerge, pl.name,
		int(loc), -1, "members=%d moved=%d", len(pl.members), len(pending))
	pl.sys.Obs.End(sp)
	return true, nil
}

// stealFor moves half of the busiest sibling's pending queue to the
// idle member cp. It reports whether any tasks moved. Task closures
// are tiny, so the transfer itself is free; the *data* the stolen
// tasks touch still pays its own access costs wherever it lives.
func (pl *Pool) stealFor(cp *ComputeProclet) bool {
	var victim *ComputeProclet
	for _, m := range pl.members {
		if m == cp || m.queueLen() < 2 {
			continue
		}
		if victim == nil || m.queueLen() > victim.queueLen() {
			victim = m
		}
	}
	if victim == nil {
		return false
	}
	stolen := victim.stealHalf()
	if len(stolen) == 0 {
		return false
	}
	cp.queue = append(cp.queue, stolen...)
	if cp.delayTrack {
		now := cp.sys.K.Now()
		for range stolen {
			cp.qTimes = append(cp.qTimes, now)
		}
	}
	pl.Steals += int64(len(stolen))
	return true
}

func (pl *Pool) busiest() *ComputeProclet {
	best := pl.members[0]
	for _, m := range pl.members[1:] {
		if m.queueLen() > best.queueLen() {
			best = m
		}
	}
	return best
}

func (pl *Pool) emptiestIdx() int {
	best := 0
	for i, m := range pl.members {
		if m.queueLen()+m.running < pl.members[best].queueLen()+pl.members[best].running {
			best = i
		}
	}
	return best
}
