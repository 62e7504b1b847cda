package storage

import (
	"fmt"
	"hash/fnv"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// Flat is the flat storage abstraction (§3.2): objects spread across
// fine-grained storage proclets on multiple machines by key hash, so
// one namespace combines the capacity and IOPS of every slice.
type Flat struct {
	name  string
	procs []*Proclet
}

// NewFlat creates a flat store of n storage proclets, spread round-
// robin across machines.
func NewFlat(sys *core.System, name string, n int, dev DeviceConfig) (*Flat, error) {
	if n < 1 {
		return nil, ErrZeroShards
	}
	f := &Flat{name: name}
	machines := sys.Cluster.Machines()
	for i := 0; i < n; i++ {
		m := machines[i%len(machines)]
		sp, err := newProcletOn(sys, fmt.Sprintf("%s.st-%d", name, i), m.ID, dev)
		if err != nil {
			for _, prev := range f.procs {
				prev.destroy()
			}
			return nil, err
		}
		f.procs = append(f.procs, sp)
	}
	return f, nil
}

// procFor routes a key to its storage proclet by hash.
func (f *Flat) procFor(key string) *Proclet {
	h := fnv.New64a()
	h.Write([]byte(key))
	return f.procs[h.Sum64()%uint64(len(f.procs))]
}

// Name returns the store's name.
func (f *Flat) Name() string { return f.name }

// TotalOps returns completed reads+writes across proclets.
func (f *Flat) TotalOps() int64 {
	var sum int64
	for _, sp := range f.procs {
		sum += sp.Reads.Value() + sp.Writes.Value()
	}
	return sum
}

// Read fetches an object.
func (f *Flat) Read(p *sim.Proc, from cluster.MachineID, key string) (any, error) {
	return f.procFor(key).readObject(p, from, key)
}

// Write stores an object.
func (f *Flat) Write(p *sim.Proc, from cluster.MachineID, key string, val any, bytes int64) error {
	return f.procFor(key).writeObject(p, from, key, val, bytes)
}

// Delete removes an object.
func (f *Flat) Delete(p *sim.Proc, from cluster.MachineID, key string) error {
	return f.procFor(key).deleteObject(p, from, key)
}
