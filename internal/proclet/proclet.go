// Package proclet implements the Nu substrate Quicksand builds on:
// logical processes decomposed into proclets — granular, independently
// schedulable units, each with a heap for state and threads for
// computation, exposing an object-oriented method-invocation interface
// and supporting live migration between machines in well under a
// millisecond for small state (Ruan et al., NSDI '23).
//
// The runtime provides location transparency: local invocations cost a
// function call, remote ones an RPC, and callers never name machines.
// A directory service tracks authoritative proclet locations; each
// machine keeps a location cache that is lazily invalidated when an
// invocation chases a stale entry.
package proclet

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// ID identifies a proclet. IDs are never reused. Zero means "no
// proclet" (external client).
type ID int64

// Msg is a method argument or result: a payload passed by reference
// plus the byte size charged when it crosses the network.
type Msg = simnet.Message

// Errors returned by the proclet runtime.
var (
	ErrNotFound  = errors.New("proclet: no such proclet")
	ErrDead      = errors.New("proclet: proclet destroyed")
	ErrNoMethod  = errors.New("proclet: no such method")
	ErrMoved     = errors.New("proclet: proclet moved")
	ErrMigrating = errors.New("proclet: migration already in progress")
	ErrRetries   = errors.New("proclet: invocation retries exhausted")
	ErrCrashed   = errors.New("proclet: hosting machine crashed")
	// ErrUnavailable means the target proclet exists but temporarily
	// refuses to serve — e.g. a replicated primary whose serving lease
	// lapsed during a partition, or one deposed mid-request by a
	// failover. It is retryable: the caller backs off and re-routes,
	// landing on the promoted replica once the directory updates.
	ErrUnavailable = errors.New("proclet: proclet temporarily unavailable")
)

// State is a proclet's lifecycle state.
type State int

// Proclet lifecycle states.
const (
	StateRunning State = iota
	StateMigrating
	StateDead
	// StateOrphaned means the hosting machine crashed out from under the
	// proclet: its heap contents are gone and it serves nothing until
	// recovery Restores it onto a live machine (or Abandons it).
	StateOrphaned
)

func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateMigrating:
		return "migrating"
	case StateDead:
		return "dead"
	case StateOrphaned:
		return "orphaned"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Method is a proclet method. It runs in a simulated process on the
// proclet's machine and may block: sleep, compute, or call other
// proclets through the context.
type Method func(ctx *Ctx, arg Msg) (Msg, error)

// FastMethod is a proclet method that never blocks: no sleeping, no
// compute, no locks, no nested calls. Remote invocations of a fast
// method are served inline at the instant the request is delivered —
// no handler process, no process switch, no Ctx allocation — via
// simnet's fast-dispatch path; local invocations skip the Ctx as well.
// Pure state reads and writes (directory lookups, memory-proclet
// get/put) belong here.
type FastMethod func(arg Msg) (Msg, error)

// Proclet is one migratable unit: a heap (byte-accounted state plus an
// arbitrary Go value in Data) and threads.
type Proclet struct {
	id      ID
	name    string
	rt      *Runtime
	machine cluster.MachineID
	// resident is set while machine actually holds the proclet; a crash or
	// a Depose clears it, leaving an orphan the directory still lists under
	// that machine, and Restore sets it again. (Resident, the method, is
	// about the heap during a post-copy window, not this.)
	resident bool
	state    State

	// allocEpoch is the hosting machine's crash epoch at the time the
	// heap was charged to it. A mismatch means the machine crashed since
	// (wiping the allocation), so the heap must not be freed against it.
	allocEpoch uint64

	heapBytes int64
	// methods holds each method name once, with whichever of its two
	// registrations exist. A proclet has a dozen methods at most, so
	// dispatch scans by name, as simnet.Node.lookup does one layer down,
	// and an invocation the fast registration declines has its fallback
	// in hand.
	methods []methodEntry

	// Data holds the proclet's actual structure state (shard contents,
	// task queues). It travels with the proclet on migration; its
	// simulated size is heapBytes.
	Data any

	active    int      // running method invocations
	drained   sim.Cond // signaled when active returns to zero
	unblocked sim.Cond // signaled when a migration completes

	// Post-copy migration state (see postcopy.go).
	lazyWindow bool     // heap not yet resident at pr.machine
	residentAt sim.Time // when the last post-copy window closed

	nextThread int64
	tasks      []*cluster.Task // outstanding thread compute, in submission order

	commBytes map[ID]int64 // affinity: bytes exchanged per peer proclet
	invokes   metrics.Counter
}

// ID returns the proclet's identifier.
func (pr *Proclet) ID() ID { return pr.id }

// Name returns the proclet's human-readable name.
func (pr *Proclet) Name() string { return pr.name }

// Location returns the machine currently hosting the proclet.
func (pr *Proclet) Location() cluster.MachineID { return pr.machine }

// State returns the proclet's lifecycle state.
func (pr *Proclet) State() State { return pr.state }

// HeapBytes returns the proclet's accounted state size.
func (pr *Proclet) HeapBytes() int64 { return pr.heapBytes }

// Invocations returns the number of method invocations executed.
func (pr *Proclet) Invocations() int64 { return pr.invokes.Value() }

// CommBytes returns bytes exchanged with each peer proclet since the
// last ResetComm (the scheduler's affinity signal). Not a copy.
func (pr *Proclet) CommBytes() map[ID]int64 { return pr.commBytes }

// ResetComm clears the affinity counters.
func (pr *Proclet) ResetComm() { pr.commBytes = make(map[ID]int64) }

// methodEntry is one method name's registrations: fast, blocking, or —
// through HandleWithFallback only — both.
type methodEntry struct {
	name     string
	fast     FastMethod
	blocking Method
}

// method returns the entry registered under name, or nil.
func (pr *Proclet) method(name string) *methodEntry {
	for i := range pr.methods {
		if e := &pr.methods[i]; e.name == name {
			return e
		}
	}
	return nil
}

// Handle registers a method. Registration is not allowed after the
// proclet has started serving (no enforcement; callers register at
// construction time).
func (pr *Proclet) Handle(method string, fn Method) {
	if e := pr.method(method); e != nil {
		if e.blocking != nil {
			panic(fmt.Sprintf("proclet: duplicate method %q on %s", method, pr.name))
		}
		panic(fmt.Sprintf("proclet: method %q on %s already registered as fast", method, pr.name))
	}
	pr.methods = append(pr.methods, methodEntry{name: method, blocking: fn})
}

// HandleFast registers a non-blocking method served on the inline
// dispatch path (see FastMethod). A method name is either fast or
// blocking, not both; registering it in both tables panics.
func (pr *Proclet) HandleFast(method string, fn FastMethod) {
	if e := pr.method(method); e != nil {
		if e.fast != nil {
			panic(fmt.Sprintf("proclet: duplicate fast method %q on %s", method, pr.name))
		}
		panic(fmt.Sprintf("proclet: method %q on %s already registered as blocking", method, pr.name))
	}
	pr.methods = append(pr.methods, methodEntry{name: method, fast: fn})
}

// HandleWithFallback registers the same method name on both dispatch
// tables: fast serves the common case inline, and may decline any
// individual invocation by returning simnet.ErrWouldBlock, which
// re-dispatches that invocation to blocking on a handler process. This
// is how a method stays on the zero-overhead inline path in one
// configuration (an unreplicated memory-proclet write) while paying for
// a blocking protocol in another (the same write shipping a replication
// record before acking).
func (pr *Proclet) HandleWithFallback(method string, fast FastMethod, blocking Method) {
	if e := pr.method(method); e != nil {
		if e.fast != nil {
			panic(fmt.Sprintf("proclet: duplicate fast method %q on %s", method, pr.name))
		}
		panic(fmt.Sprintf("proclet: duplicate method %q on %s", method, pr.name))
	}
	pr.methods = append(pr.methods, methodEntry{name: method, fast: fast, blocking: blocking})
}

// GrowHeap adjusts the proclet's accounted state size by delta bytes
// (negative shrinks), charging the hosting machine's memory. It fails
// with cluster.ErrNoMemory when the machine cannot hold the growth.
func (pr *Proclet) GrowHeap(delta int64) error {
	if pr.state == StateDead {
		return ErrDead
	}
	if pr.state == StateOrphaned {
		return ErrCrashed
	}
	m := pr.rt.Cluster.Machine(pr.machine)
	if delta >= 0 {
		if err := m.AllocMem(delta); err != nil {
			return err
		}
	} else {
		m.FreeMem(-delta)
	}
	pr.heapBytes += delta
	if pr.heapBytes < 0 {
		panic(fmt.Sprintf("proclet: negative heap on %s", pr.name))
	}
	return nil
}

// Call invokes a method on another proclet from this one, recording
// affinity and routing from this proclet's current machine.
func (pr *Proclet) Call(p *sim.Proc, target ID, method string, arg Msg) (Msg, error) {
	return pr.rt.Invoke(p, pr.machine, pr.id, target, method, arg)
}

// Ctx is passed to every method invocation. It is valid only for the
// duration of the invocation — the runtime recycles Ctx structs, so
// methods must not retain one past their return.
type Ctx struct {
	// Proc is the simulated process executing the invocation.
	Proc *sim.Proc
	// Self is the proclet whose method is running.
	Self *Proclet
	// From identifies the calling proclet (0 for external clients).
	From ID
}

// Machine returns the machine hosting the proclet right now.
func (c *Ctx) Machine() *cluster.Machine {
	return c.Self.rt.Cluster.Machine(c.Self.machine)
}

// Compute executes d of single-core CPU work on the proclet's machine.
// Unlike thread compute, invocation compute is not migratable: the
// migration protocol drains invocations first, so methods should keep
// their compute slices short.
func (c *Ctx) Compute(d time.Duration) {
	c.Machine().Exec(c.Proc, d)
}

// Call invokes a method on another proclet on behalf of Self.
func (c *Ctx) Call(target ID, method string, arg Msg) (Msg, error) {
	return c.Self.Call(c.Proc, target, method, arg)
}

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.Self.rt }

// Thread is a proclet thread: long-running computation that belongs to
// the proclet and follows it across migrations. When the proclet
// migrates, in-flight Compute work is suspended and its remainder
// resumes on the destination machine — the simulator's analogue of Nu
// migrating thread stacks.
type Thread struct {
	pr   *Proclet
	proc *sim.Proc
	base string // thread name as given to SpawnThread
	idx  int64  // per-proclet thread ordinal

	// The compute in flight (see ComputeStep): the task submitted for it
	// or, while none is, the work still owed.
	task *cluster.Task
	rem  time.Duration
}

// SpawnThread starts fn on a new thread of the proclet. The thread's
// full process name is formatted lazily (only if observed, e.g. on
// panic), so thread-heavy workloads pay no per-spawn Sprintf.
func (pr *Proclet) SpawnThread(name string, fn func(t *Thread)) *Thread {
	pr.nextThread++
	t := &Thread{pr: pr, base: name, idx: pr.nextThread}
	t.proc = pr.rt.k.SpawnLazy(t.procName, func(p *sim.Proc) {
		t.proc = p
		fn(t)
	})
	return t
}

func (t *Thread) procName() string {
	return fmt.Sprintf("%s/%s-%d", t.pr.name, t.base, t.idx)
}

// Proc returns the thread's simulated process.
func (t *Thread) Proc() *sim.Proc { return t.proc }

// Proclet returns the owning proclet.
func (t *Thread) Proclet() *Proclet { return t.pr }

// Sleep suspends the thread for virtual duration d.
func (t *Thread) Sleep(d time.Duration) { t.proc.Sleep(d) }

// Compute executes d of single-core CPU work on whichever machine hosts
// the proclet, following it across migrations: if the proclet migrates
// mid-compute, the remaining work resumes on the new machine.
func (t *Thread) Compute(d time.Duration) {
	t.ComputeBegin(d)
	for c := t.ComputeStep(); c != nil; c = t.ComputeStep() {
		c.Wait(t.proc)
	}
}

// ComputeBegin and ComputeStep are Compute for a thread that cannot block
// where it stands, a sim.WaitStaged stage: ComputeBegin(d) makes d the work
// the thread owes, and every ComputeStep moves it as far as it goes without
// waiting. A thread has one compute in flight at a time.
func (t *Thread) ComputeBegin(d time.Duration) { t.rem = d }

// ComputeStep submits the work owed, or after a wake settles the task that
// finished and resubmits what a cancellation left of it, and returns the
// Cond to wait on before the next step, or nil once the work is done.
func (t *Thread) ComputeStep() *sim.Cond {
	pr := t.pr
	for {
		if task := t.task; task != nil {
			if c := task.Done(); c != nil {
				return c
			}
			t.task = nil
			pr.dropTask(task)
			t.rem = 0
			if task.Canceled() {
				t.rem = task.Remaining()
			}
			task.Release()
		}
		if t.rem <= 0 {
			return nil
		}
		switch pr.state {
		case StateDead:
			return nil
		case StateMigrating, StateOrphaned:
			// Suspended: a migration commit or a crash-recovery Restore
			// resumes the remainder on the proclet's new machine.
			return &pr.unblocked
		}
		t.task = pr.rt.Cluster.Machine(pr.machine).Submit(t.rem)
		pr.tasks = append(pr.tasks, t.task)
	}
}

// cancelTasks suspends every outstanding thread compute, oldest first, so
// the order in which the threads wake, resubmit and are numbered by the
// next machine depends on the program alone.
func (pr *Proclet) cancelTasks() {
	for _, task := range pr.tasks {
		task.Cancel()
	}
	clear(pr.tasks)
	pr.tasks = pr.tasks[:0]
}

// dropTask forgets a task its thread has finished waiting for. A task
// that cancelTasks already dropped is not found, which is fine.
func (pr *Proclet) dropTask(task *cluster.Task) {
	if i := slices.Index(pr.tasks, task); i >= 0 {
		pr.tasks = slices.Delete(pr.tasks, i, i+1)
	}
}

// Call invokes a method on another proclet on behalf of this thread's
// proclet.
func (t *Thread) Call(target ID, method string, arg Msg) (Msg, error) {
	return t.pr.Call(t.proc, target, method, arg)
}
