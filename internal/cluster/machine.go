// Package cluster models the physical machines Quicksand runs on: CPU
// cores, memory capacity, and the pressure signals the scheduler reads.
//
// CPU is modeled as a processor-sharing server: every runnable task
// receives an equal share of the machine's available cores, capped at
// one core per task (tasks are single threads of execution; parallel
// work submits several tasks). High-priority co-located applications —
// such as Figure 1's latency-critical antagonist — are modeled as core
// *reservations* that modulate the capacity available to everything
// else, which is exactly how they affect a best-effort filler.
//
// The processor-sharing state uses the classic virtual-service-time
// formulation: because every resident task accrues service at the same
// instantaneous rate, the machine keeps one global attained-service
// accumulator A(t) = ∫rate·dt and each task records its finish point
// A(t₀) + work at submit. Settling elapsed time is O(1) instead of a
// walk over every task, and the next completion is the minimum finish
// point, tracked by an indexed min-heap.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// MachineID identifies a machine; it doubles as the machine's network
// node ID on the cluster fabric.
type MachineID int

// ErrNoMemory is returned when an allocation exceeds free memory.
var ErrNoMemory = errors.New("cluster: out of memory")

// ErrMachineDown is returned for resource requests against a crashed
// machine.
var ErrMachineDown = errors.New("cluster: machine is down")

// MachineConfig sizes a machine.
type MachineConfig struct {
	Cores    float64 // CPU capacity in cores
	MemBytes int64   // RAM capacity in bytes
}

// Task is one single-threaded unit of CPU work executing under
// processor sharing. Tasks are created with Submit and either run to
// completion or are canceled (for example when their proclet migrates
// and the remaining work should move to another machine).
type Task struct {
	m  *Machine
	id int64
	// vfinish is the machine attained-service value at which this task
	// completes: attained-at-submit + work. Remaining work at any
	// instant is vfinish - m.attained, computed lazily.
	vfinish   float64
	remaining float64 // core-nanoseconds left, settled at finish/cancel
	heapIdx   int     // position in m.taskHeap; -1 once retired
	done      sim.Cond
	finished  bool
	canceled  bool
}

// Canceled reports whether the task was canceled before completing.
func (t *Task) Canceled() bool { return t.canceled }

// Remaining returns the core-time the task still owes. It is only
// meaningful after cancellation (it is settled at cancel time).
func (t *Task) Remaining() time.Duration {
	if t.remaining < 0 {
		return 0
	}
	return time.Duration(math.Ceil(t.remaining))
}

// Done returns the Cond that is broadcast when the task completes or is
// canceled, or nil once it has: what a caller that cannot block (a
// sim.WaitStaged stage) parks its process on in place of Wait.
func (t *Task) Done() *sim.Cond {
	if t.finished {
		return nil
	}
	return &t.done
}

// Wait blocks the calling process until the task completes or is
// canceled. It reports whether the task was canceled and, if so, how
// much work remains.
func (t *Task) Wait(p *sim.Proc) (canceled bool, remaining time.Duration) {
	if c := t.Done(); c != nil {
		c.Wait(p)
	}
	if t.canceled {
		return true, t.Remaining()
	}
	return false, 0
}

// Release hands the task's storage back to its machine for a later
// Submit to reuse; the handle is dead afterwards. Only a caller that owns
// the one handle to a finished task may release it — Exec and a proclet
// thread's Compute, which submit, wait once and forget. Nothing is
// released on the caller's behalf at retirement, because a handle held
// elsewhere (a controller's, to Cancel later) must stay valid. Releasing a
// resident task, or one already released, panics.
func (t *Task) Release() {
	m := t.m
	if m == nil || !t.finished {
		panic("cluster: Release of a task that is resident or already released")
	}
	t.m = nil
	m.freeTasks = append(m.freeTasks, t)
}

// Cancel removes the task from the machine, settling its remaining
// work. Canceling a finished task is a no-op.
func (t *Task) Cancel() {
	if t.finished {
		return
	}
	m := t.m
	m.settle()
	t.remaining = t.vfinish - m.attained
	m.heapRemove(t.heapIdx)
	t.finished = true
	t.canceled = true
	t.done.Broadcast()
	m.recordUtil()
	m.reschedule()
}

// Machine is a simulated server.
type Machine struct {
	ID   MachineID
	Name string

	k   *sim.Kernel
	cfg MachineConfig

	// CPU processor-sharing state.
	taskHeap   []*Task // indexed min-heap on (vfinish, id)
	attained   float64 // A(t): per-task service accrued since creation, ns
	nextTaskID int64
	reserved   float64  // cores taken by high-priority work
	lastSettle sim.Time // last time attained service was settled

	// completion fires completeFinished when the resident task with the
	// least work left is due to finish. Every change to the task set or
	// the rate moves it (reschedule), so no superseded completion is ever
	// queued.
	completion sim.Timer

	// Task storage. Submit reuses what Task.Release handed back and, when
	// nothing has been, takes the next slot of a block-allocated slab, so a
	// submit-wait-release loop allocates nothing in steady state and a
	// caller that keeps its handles pays one allocation per slabSize
	// submissions. A retired Task that was not released stays valid
	// (Remaining, Wait, Cancel are all legal on finished tasks).
	freeTasks []*Task
	taskSlab  []Task

	memUsed int64

	// Failure state: a down machine accepts no work and holds no memory.
	// epoch counts crashes, so bookkeeping done against the pre-crash
	// machine (a migration's pending FreeMem, a proclet's heap charge)
	// can detect that its allocation no longer exists.
	down  bool
	epoch uint64

	// Accelerators (see gpu.go).
	gpus      []*GPU
	gpuLinkBw int64

	// CoreSeconds accumulates CPU work completed on this machine, in
	// core-seconds. Reserved (antagonist) cores are not counted.
	CoreSeconds float64
	// Util, when non-nil, receives a busy-core sample at every CPU
	// state transition. Enable with TrackUtilization.
	Util *metrics.TimeSeries
	// MemSeries, when non-nil, receives memory-used samples on every
	// allocation change.
	MemSeries *metrics.TimeSeries
}

// NewMachine creates a standalone machine on the kernel. Most callers
// use Cluster.AddMachine instead.
func NewMachine(k *sim.Kernel, id MachineID, name string, cfg MachineConfig) *Machine {
	if cfg.Cores <= 0 {
		panic("cluster: machine needs positive core count")
	}
	if cfg.MemBytes < 0 {
		panic("cluster: negative memory capacity")
	}
	m := &Machine{
		ID:   id,
		Name: name,
		k:    k,
		cfg:  cfg,
	}
	m.completion.Init(k, m.completeFinished)
	return m
}

// Config returns the machine's static configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// Cores returns the machine's total core count.
func (m *Machine) Cores() float64 { return m.cfg.Cores }

// TrackUtilization attaches a time series that records busy cores
// (including reserved capacity) at every transition.
func (m *Machine) TrackUtilization() *metrics.TimeSeries {
	m.Util = metrics.NewTimeSeries(fmt.Sprintf("machine-%d.busy_cores", m.ID))
	m.recordUtil()
	return m.Util
}

// availCores returns the capacity left after reservations.
func (m *Machine) availCores() float64 {
	a := m.cfg.Cores - m.reserved
	if a < 0 {
		return 0
	}
	return a
}

// AvailCores returns cores available to best-effort work.
func (m *Machine) AvailCores() float64 { return m.availCores() }

// Reserved returns the cores reserved for high-priority work.
func (m *Machine) Reserved() float64 { return m.reserved }

// Runnable returns the number of tasks currently executing or waiting
// for CPU share.
func (m *Machine) Runnable() int { return len(m.taskHeap) }

// perTaskRate returns the core share each task currently receives.
func (m *Machine) perTaskRate() float64 {
	n := len(m.taskHeap)
	if n == 0 {
		return 0
	}
	rate := m.availCores() / float64(n)
	if rate > 1 {
		rate = 1
	}
	return rate
}

// BusyCores returns cores currently in use, counting reservations.
func (m *Machine) BusyCores() float64 {
	return math.Min(m.reserved, m.cfg.Cores) + m.perTaskRate()*float64(len(m.taskHeap))
}

// Utilization returns BusyCores as a fraction of total cores.
func (m *Machine) Utilization() float64 { return m.BusyCores() / m.cfg.Cores }

// CPUPressure returns demand over available capacity for best-effort
// work: the number of runnable tasks divided by available cores.
// Values above 1 mean tasks are receiving less than a full core each;
// +Inf means work is queued against zero capacity.
func (m *Machine) CPUPressure() float64 {
	n := float64(len(m.taskHeap))
	if n == 0 {
		return 0
	}
	avail := m.availCores()
	if avail == 0 {
		return math.Inf(1)
	}
	return n / avail
}

// ---- indexed min-heap on (vfinish, id) ----

// taskLess orders resident tasks by finish point, breaking ties by
// submission order so simultaneous completions retire deterministically.
func taskLess(a, b *Task) bool {
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.id < b.id
}

func (m *Machine) heapPush(t *Task) {
	t.heapIdx = len(m.taskHeap)
	m.taskHeap = append(m.taskHeap, t)
	m.siftUp(t.heapIdx)
}

// heapRemove deletes the task at index i, keeping the heap ordered.
func (m *Machine) heapRemove(i int) {
	h := m.taskHeap
	n := len(h) - 1
	t := h[i]
	if i != n {
		h[i] = h[n]
		h[i].heapIdx = i
	}
	h[n] = nil
	m.taskHeap = h[:n]
	if i < n {
		if !m.siftDown(i) {
			m.siftUp(i)
		}
	}
	t.heapIdx = -1
}

func (m *Machine) siftUp(i int) {
	h := m.taskHeap
	for i > 0 {
		p := (i - 1) / 2
		if !taskLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].heapIdx, h[p].heapIdx = i, p
		i = p
	}
}

// siftDown restores heap order below i; it reports whether i moved.
func (m *Machine) siftDown(i int) bool {
	h := m.taskHeap
	n := len(h)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && taskLess(h[r], h[l]) {
			c = r
		}
		if !taskLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		h[i].heapIdx, h[c].heapIdx = i, c
		i = c
	}
	return i > i0
}

// settle advances the attained-service accumulator by the rate that has
// been in effect since the last settle. O(1): individual task balances
// are derived lazily from the accumulator.
func (m *Machine) settle() {
	now := m.k.Now()
	if now == m.lastSettle {
		return
	}
	elapsed := float64(now - m.lastSettle)
	rate := m.perTaskRate()
	if rate > 0 {
		m.attained += elapsed * rate
		m.CoreSeconds += elapsed * rate * float64(len(m.taskHeap)) / 1e9
	}
	m.lastSettle = now
}

// reschedule computes the next task completion and moves the completion
// timer to it, or stops the timer when nothing can complete.
func (m *Machine) reschedule() {
	rate := m.perTaskRate()
	if rate <= 0 || len(m.taskHeap) == 0 {
		m.completion.Stop()
		return
	}
	minRem := m.taskHeap[0].vfinish - m.attained
	if minRem < 0 {
		minRem = 0
	}
	dt := time.Duration(math.Ceil(minRem / rate))
	m.completion.Arm(m.k.Now().Add(dt))
}

// completeFinished settles and retires every task whose work is done,
// in deterministic (finish point, submission) order.
func (m *Machine) completeFinished() {
	m.settle()
	const eps = 0.5 // sub-nanosecond residue from float math
	for len(m.taskHeap) > 0 && m.taskHeap[0].vfinish-m.attained <= eps {
		t := m.taskHeap[0]
		m.heapRemove(0)
		t.remaining = t.vfinish - m.attained
		t.finished = true
		t.done.Broadcast()
	}
	m.recordUtil()
	m.reschedule()
}

func (m *Machine) recordUtil() {
	if m.Util != nil {
		m.Util.Add(m.k.Now(), m.BusyCores())
	}
}

// Down reports whether the machine is crashed.
func (m *Machine) Down() bool { return m.down }

// Epoch returns the machine's crash count. An allocation made at epoch
// e is gone — and must not be freed — once Epoch() != e.
func (m *Machine) Epoch() uint64 { return m.epoch }

// Crash fail-stops the machine: every resident task retires as canceled
// with its unfinished work as the remainder (so a resilient caller can
// resubmit it elsewhere), memory contents are lost, and the epoch is
// bumped. Crashing a down machine is a no-op.
func (m *Machine) Crash() {
	if m.down {
		return
	}
	m.settle()
	m.down = true
	m.epoch++
	for len(m.taskHeap) > 0 {
		t := m.taskHeap[0]
		m.heapRemove(0)
		t.remaining = t.vfinish - m.attained
		t.finished = true
		t.canceled = true
		t.done.Broadcast()
	}
	m.memUsed = 0
	if m.MemSeries != nil {
		m.MemSeries.Add(m.k.Now(), 0)
	}
	m.recordUtil()
	m.reschedule() // no tasks: stops the completion timer
}

// Restart brings a crashed machine back online with empty memory and no
// resident tasks. Restarting a live machine is a no-op.
func (m *Machine) Restart() {
	if !m.down {
		return
	}
	m.settle()
	m.down = false
	m.recordUtil()
}

// Submit enqueues `work` of single-core CPU time and returns the task
// handle. The caller typically Waits on it; a controller may Cancel it.
// Work must be positive.
func (m *Machine) Submit(work time.Duration) *Task {
	if work <= 0 {
		panic("cluster: Submit requires positive work")
	}
	m.settle()
	m.nextTaskID++
	var t *Task
	if n := len(m.freeTasks); n > 0 {
		t = m.freeTasks[n-1]
		m.freeTasks = m.freeTasks[:n-1]
		t.remaining, t.finished, t.canceled = 0, false, false
	} else {
		const slabSize = 64
		if len(m.taskSlab) == 0 {
			m.taskSlab = make([]Task, slabSize)
		}
		t = &m.taskSlab[0]
		m.taskSlab = m.taskSlab[1:]
	}
	t.m = m
	t.id = m.nextTaskID
	if m.down {
		// A dead machine executes nothing: hand back the task already
		// canceled, with all of its work as the remainder.
		t.vfinish = m.attained + float64(work)
		t.remaining = float64(work)
		t.heapIdx = -1
		t.finished, t.canceled = true, true
		return t
	}
	t.vfinish = m.attained + float64(work)
	m.heapPush(t)
	m.recordUtil()
	m.reschedule()
	return t
}

// Exec runs `work` of single-core CPU time on the machine, blocking the
// calling process until the work completes under processor sharing.
// Zero or negative work returns immediately.
func (m *Machine) Exec(p *sim.Proc, work time.Duration) {
	if work <= 0 {
		return
	}
	t := m.Submit(work)
	t.Wait(p)
	t.Release()
}

// SetReserved changes the cores reserved for high-priority work,
// immediately re-dividing the remainder among best-effort tasks.
func (m *Machine) SetReserved(cores float64) {
	if cores < 0 {
		panic("cluster: negative reservation")
	}
	m.settle()
	m.reserved = cores
	m.recordUtil()
	m.reschedule()
}

// AllocMem reserves bytes of RAM, failing with ErrNoMemory if the
// machine cannot hold them.
func (m *Machine) AllocMem(bytes int64) error {
	if bytes < 0 {
		panic("cluster: negative allocation")
	}
	if m.down {
		return fmt.Errorf("%w: machine %d", ErrMachineDown, m.ID)
	}
	if m.memUsed+bytes > m.cfg.MemBytes {
		return fmt.Errorf("%w: machine %d: %d requested, %d free",
			ErrNoMemory, m.ID, bytes, m.MemFree())
	}
	m.memUsed += bytes
	if m.MemSeries != nil {
		m.MemSeries.Add(m.k.Now(), float64(m.memUsed))
	}
	return nil
}

// FreeMem releases bytes of RAM.
func (m *Machine) FreeMem(bytes int64) {
	if bytes < 0 || bytes > m.memUsed {
		panic(fmt.Sprintf("cluster: bad free of %d bytes (used %d)", bytes, m.memUsed))
	}
	m.memUsed -= bytes
	if m.MemSeries != nil {
		m.MemSeries.Add(m.k.Now(), float64(m.memUsed))
	}
}

// MemUsed returns bytes currently allocated.
func (m *Machine) MemUsed() int64 { return m.memUsed }

// MemCapacity returns the machine's total RAM.
func (m *Machine) MemCapacity() int64 { return m.cfg.MemBytes }

// MemFree returns unallocated RAM.
func (m *Machine) MemFree() int64 { return m.cfg.MemBytes - m.memUsed }

// MemPressure returns used over capacity in [0,1].
func (m *Machine) MemPressure() float64 {
	if m.cfg.MemBytes == 0 {
		return 1
	}
	return float64(m.memUsed) / float64(m.cfg.MemBytes)
}
