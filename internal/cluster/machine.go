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
// walk over every task, and the next completion is the least finish
// point: the head of the run list, which keeps resident tasks sorted by
// finish point.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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
	m *Machine
	// vfinish is the machine attained-service value at which this task
	// completes: attained-at-submit + work. Remaining work at any
	// instant is vfinish - m.attained, computed lazily.
	vfinish   float64
	remaining float64 // core-nanoseconds left, settled at finish/cancel
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
// sim.Proc.Await stage) parks its process on in place of Wait.
func (t *Task) Done() *sim.Cond {
	if t.finished {
		return nil
	}
	return &t.done
}

// wait blocks the calling process until the task completes or is
// canceled. It reports whether the task was canceled and, if so, how
// much work remains.
func (t *Task) wait(p *sim.Proc) (canceled bool, remaining time.Duration) {
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
	m.retire(m.runHead+slices.Index(m.run[m.runHead:], t), true)
	m.reschedule()
}

// Machine is a simulated server.
type Machine struct {
	ID MachineID
	k  *sim.Kernel

	// What the scheduler's reactor reads on every poll of a calm machine
	// (core's needsReact), together in the struct's first cache line:
	// capacity, cores taken by high-priority work, memory in use, and the
	// failure state. A down machine accepts no work and holds no memory;
	// epoch counts crashes, so bookkeeping done against the pre-crash
	// machine (a migration's pending FreeMem, a proclet's heap charge)
	// can detect that its allocation no longer exists.
	cfg      MachineConfig
	reserved float64
	memUsed  int64
	down     bool
	epoch    uint64

	Name string

	// CPU processor-sharing state.
	run        []*Task // run[runHead:]: resident tasks by vfinish, ties in submission order
	runHead    int
	attained   float64  // A(t): per-task service accrued since creation, ns
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

	// Accelerators (see gpu.go).
	gpus []*GPU

	// CoreSeconds accumulates CPU work completed on this machine, in
	// core-seconds. Reserved (antagonist) cores are not counted.
	CoreSeconds float64
}

// NewMachine creates a standalone machine on the kernel. Most callers
// use Cluster.AddMachine instead.
func NewMachine(k *sim.Kernel, id MachineID, name string, cfg MachineConfig) *Machine {
	m := &Machine{}
	m.init(k, id, name, cfg)
	m.completion.Init(k, func(uint64) { m.completeFinished() }, 0)
	return m
}

// init makes m a new machine, all but its completion timer.
func (m *Machine) init(k *sim.Kernel, id MachineID, name string, cfg MachineConfig) {
	if cfg.Cores <= 0 {
		panic("cluster: machine needs positive core count")
	}
	if cfg.MemBytes < 0 {
		panic("cluster: negative memory capacity")
	}
	m.ID, m.Name, m.k, m.cfg = id, name, k, cfg
}

// Cores returns the machine's total core count.
func (m *Machine) Cores() float64 { return m.cfg.Cores }

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

// Runnable returns the number of tasks currently executing or waiting
// for CPU share.
func (m *Machine) Runnable() int { return len(m.run) - m.runHead }

// perTaskRate returns the core share each task currently receives.
func (m *Machine) perTaskRate() float64 {
	n := m.Runnable()
	if n == 0 {
		return 0
	}
	rate := m.availCores() / float64(n)
	if rate > 1 {
		rate = 1
	}
	return rate
}

// Utilization returns the cores in use, counting reservations, as a
// fraction of total cores.
func (m *Machine) Utilization() float64 {
	return (math.Min(m.reserved, m.cfg.Cores) + float64(m.perTaskRate()*float64(m.Runnable()))) / m.cfg.Cores
}

// ---- the run list ----

// runSlack is the dead prefix the run list carries before retire compacts
// it, as ComputeProclet's queue does.
const runSlack = 32

// insert places t in the run list after every resident task that finishes
// no later, so equal finish points retire in submission order. Work mostly
// arrives in finish order, so the scan back from the tail rarely moves.
func (m *Machine) insert(t *Task) {
	m.run = append(m.run, t)
	i := len(m.run) - 1
	for ; i > m.runHead && m.run[i-1].vfinish > t.vfinish; i-- {
		m.run[i] = m.run[i-1]
	}
	m.run[i] = t
}

// retire takes run[i] off the machine, settles its remainder and wakes its
// waiter. The head goes by advancing runHead, anything else by a shift.
func (m *Machine) retire(i int, canceled bool) {
	t := m.run[i]
	if i > m.runHead {
		m.run = slices.Delete(m.run, i, i+1)
	} else {
		m.run[i] = nil
		m.runHead++
		if m.runHead == len(m.run) {
			m.run, m.runHead = m.run[:0], 0
		} else if m.runHead >= runSlack && 2*m.runHead >= len(m.run) {
			n := copy(m.run, m.run[m.runHead:])
			clear(m.run[n:])
			m.run, m.runHead = m.run[:n], 0
		}
	}
	t.remaining = t.vfinish - m.attained
	t.finished = true
	t.canceled = canceled
	t.done.Broadcast()
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
		m.attained += float64(elapsed * rate)
		m.CoreSeconds += elapsed * rate * float64(m.Runnable()) / 1e9
	}
	m.lastSettle = now
}

// reschedule computes the next task completion and moves the completion
// timer to it, or stops the timer when nothing can complete.
func (m *Machine) reschedule() {
	rate := m.perTaskRate()
	if rate <= 0 {
		m.completion.Stop()
		return
	}
	minRem := m.run[m.runHead].vfinish - m.attained
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
	for m.Runnable() > 0 && m.run[m.runHead].vfinish-m.attained <= eps {
		m.retire(m.runHead, false)
	}
	m.reschedule()
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
	for m.Runnable() > 0 {
		m.retire(m.runHead, true)
	}
	m.memUsed = 0
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
}

// Submit enqueues `work` of single-core CPU time and returns the task
// handle. The caller typically Waits on it; a controller may Cancel it.
// Work must be positive.
func (m *Machine) Submit(work time.Duration) *Task {
	if work <= 0 {
		panic("cluster: Submit requires positive work")
	}
	m.settle()
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
	if m.down {
		// A dead machine executes nothing: hand back the task already
		// canceled, with all of its work as the remainder.
		t.vfinish = m.attained + float64(work)
		t.remaining = float64(work)
		t.finished, t.canceled = true, true
		return t
	}
	t.vfinish = m.attained + float64(work)
	m.insert(t)
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
	t.wait(p)
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
	return nil
}

// FreeMem releases bytes of RAM.
func (m *Machine) FreeMem(bytes int64) {
	if bytes < 0 || bytes > m.memUsed {
		panic(fmt.Sprintf("cluster: bad free of %d bytes (used %d)", bytes, m.memUsed))
	}
	m.memUsed -= bytes
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
