// Package sharded provides Quicksand's high-level memory abstractions
// (§3.2): data structures — vector, map, set, queue — partitioned into
// disjoint ranges, each range stored in its own memory proclet so the
// scheduler can place and migrate data at fine granularity.
//
// Map and Vector share one range table (table.go): an index proclet
// mapping shard ranges to data proclets, which clients cache so lookups
// route directly to the owning shard, and the restructuring protocol
// that keeps shards within the migration-latency budget (§3.3): a
// shard that outgrows MaxShardBytes splits at the midpoint of its
// range, and adjacent underfull shards merge. Iterators
// carry semantic hints that drive prefetching, hiding remote-shard
// access latency behind computation.
package sharded

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proclet"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Errors returned by sharded structures.
var (
	ErrOutOfRange = errors.New("sharded: index out of range")
	ErrNotFound   = errors.New("sharded: key not found")
	ErrClosed     = errors.New("sharded: structure closed")
)

// Options tunes a sharded structure.
type Options struct {
	// MaxShardBytes caps shard size; 0 uses the system's derived cap
	// (target migration latency x NIC bandwidth).
	MaxShardBytes int64
	// AutoAdapt registers the structure with the scheduler's
	// adaptation loop so splits and merges happen automatically.
	AutoAdapt bool
	// Spill, when set, enables memory tiering for vectors: cold
	// shards move to this storage tier when RAM runs out and fault
	// back in on access (§5's "flash as slow cheap memory").
	Spill *storage.Flat
}

func (o Options) withDefaults() Options {
	if o.MaxShardBytes == 0 {
		o.MaxShardBytes = core.MaxShardBytes()
	}
	return o
}

// relieved runs write and, when mp's machine refuses it for memory,
// asks the scheduler to free need bytes there and runs it once more —
// the synchronous pressure relief every structure's write path uses.
func relieved(p *sim.Proc, sys *core.System, mp *core.MemoryProclet, need int64, write func() error) error {
	err := write()
	if errors.Is(err, cluster.ErrNoMemory) && sys.Sched.FreeUpMemory(p, mp.Location(), need) {
		err = write()
	}
	return err
}

// opTracker counts in-flight structure operations per shard proclet.
// Splits and merges drain a shard's outstanding operations before
// moving its data; combined with the split gate (which holds back new
// operations), this gives restructures an atomic view — the §3.3
// "splitting blocks new invocations until it completes" semantics.
type opTracker struct {
	counts map[proclet.ID]int
	idle   sim.Cond
}

func newOpTracker() *opTracker {
	return &opTracker{counts: make(map[proclet.ID]int)}
}

// enter records an operation starting against a shard.
func (t *opTracker) enter(id proclet.ID) { t.counts[id]++ }

// exit records an operation completing.
func (t *opTracker) exit(id proclet.ID) {
	t.counts[id]--
	if t.counts[id] <= 0 {
		delete(t.counts, id)
		t.idle.Broadcast()
	}
}

// drain blocks until the shard has no in-flight operations.
func (t *opTracker) drain(p *sim.Proc, id proclet.ID) {
	for t.counts[id] > 0 {
		t.idle.Wait(p)
	}
}

// splitGate blocks operations targeting a key range that is currently
// being restructured — the paper's "splitting/merging briefly blocks
// new proclet method invocations" (§3.3), surfaced at the structure
// level where routing happens.
type splitGate struct {
	active bool
	lo, hi uint64 // affected key range, [lo, hi)
	done   sim.Cond
}

// wait blocks while the gate covers key.
func (g *splitGate) wait(p *sim.Proc, key uint64) {
	for g.active && key >= g.lo && key < g.hi {
		g.done.Wait(p)
	}
}

// close opens the gate and wakes all blocked operations.
func (g *splitGate) close() {
	g.active = false
	g.done.Broadcast()
}

// open marks [lo, hi) as under restructure.
func (g *splitGate) open(lo, hi uint64) {
	g.active = true
	g.lo, g.hi = lo, hi
}
