// Package fleet is the one way to assemble a simulated fleet: the
// partitioned topology every multi-shard run shares, where its memory
// proclets go, how its per-shard control-plane logs merge, the durable
// record an experiment checks "no acked write lost" against (Ledger),
// how a server fans a batch out to the stores (Server), and a shard's
// lifecycle from placement through preload and serving to the drain
// check (Shard). DESIGN.md "Fleet assembly" states the contract.
package fleet

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Fleet is a partitioned deployment: one core.System per shard, each on
// its own shard kernel of PK. Shards talk only through the Partition.
type Fleet struct {
	PK     *sim.ParKernel
	Shards []*core.System
	net    *simnet.Partition
	ran    bool
}

// New builds shards x machines identical machines. The lookahead window
// is the fabric latency of simnet.DefaultConfig, and shard s runs on
// PK.Shard(s) under that config seeded seed+s. Nothing is started:
// enable tracing on the shards that want it, then Start each one. Close
// the fleet when done.
func New(seed int64, shards, machines int, mc cluster.MachineConfig) *Fleet {
	cfg := core.DefaultConfig()
	f := &Fleet{
		PK:     sim.NewParKernel(seed, shards, sim.Time(simnet.DefaultConfig().Latency.Nanoseconds())),
		Shards: make([]*core.System, shards),
	}
	mcs := make([]cluster.MachineConfig, machines)
	for i := range mcs {
		mcs[i] = mc
	}
	for s := range f.Shards {
		cfg.Seed = seed + int64(s)
		f.Shards[s] = core.NewSystemOnKernel(f.PK.Shard(s), cfg, mcs)
	}
	return f
}

// Partition returns the fleet's cross-shard RPC layer, stitched from the
// shards' fabrics by the first call, which must precede the first run.
func (f *Fleet) Partition() *simnet.Partition {
	if f.net == nil {
		if f.ran {
			panic("fleet: Partition after the first RunUntil: the shards already ran isolated")
		}
		fabrics := make([]*simnet.Fabric, len(f.Shards))
		for s, sys := range f.Shards {
			fabrics[s] = sys.Cluster.Fabric
		}
		f.net = simnet.NewPartition(f.PK, fabrics)
	}
	return f.net
}

// RunUntil runs the fleet to t. With no Partition no shard can reach
// another, so the kernel is isolated: each shard runs straight to t.
func (f *Fleet) RunUntil(t sim.Time) {
	if f.net == nil {
		f.PK.Isolate()
	}
	f.ran = true
	f.PK.RunUntil(t)
}

// Close unwinds every shard kernel.
func (f *Fleet) Close() { f.PK.Close() }

// Events returns each shard's executed kernel events, in shard order.
func (f *Fleet) Events() []uint64 {
	n := make([]uint64, len(f.Shards))
	for s := range n {
		n[s] = f.PK.Shard(s).EventsProcessed()
	}
	return n
}

// Trace is the control-plane log of the whole fleet: the shards' logs
// merged by time, ties broken by shard index. The result depends only
// on what each shard logged, never on the host worker count.
func (f *Fleet) Trace() *obs.Log {
	logs := make([]*obs.Log, len(f.Shards))
	for s, sys := range f.Shards {
		logs[s] = sys.Trace
	}
	merged, _ := obs.MergeLogs(logs...)
	return merged
}

// PlaceStores creates n memory proclets named by nameFmt (one %d verb,
// the store index) on machines first + i%(M-first) of sys: first = 1
// keeps machine 0 a pure front end for servers, clients and the failure
// monitor; first = 0 spreads over all M machines. With rf >= 2 each
// store joins the system's replication plane, which must be enabled, as
// soon as it is placed, so proclet IDs run primary, its backups, next
// primary.
func PlaceStores(sys *core.System, nameFmt string, n, first, rf int) ([]*core.MemoryProclet, error) {
	stores := make([]*core.MemoryProclet, n)
	span := len(sys.Cluster.Machines()) - first
	for i := range stores {
		name := fmt.Sprintf(nameFmt, i)
		mp, err := core.NewMemoryProcletOn(sys, name, cluster.MachineID(first+i%span))
		if err != nil {
			return nil, fmt.Errorf("fleet: place %s: %w", name, err)
		}
		if rf >= 2 {
			if err := sys.Replication().Replicate(mp, rf); err != nil {
				return nil, fmt.Errorf("fleet: replicate %s: %w", name, err)
			}
		}
		stores[i] = mp
	}
	return stores, nil
}
