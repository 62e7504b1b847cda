package cluster

import (
	"slices"
	"strconv"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Cluster bundles a set of machines with the network fabric that
// connects them. Machine IDs and fabric node IDs coincide.
type Cluster struct {
	K      *sim.Kernel
	Fabric *simnet.Fabric

	machines []*Machine // indexed by MachineID: AddMachine assigns IDs densely from 0

	complete func(id uint64) // every machine's completion timer, bound once
}

// New creates an empty cluster on the kernel with the given network.
func New(k *sim.Kernel, netCfg simnet.Config) *Cluster {
	c := &Cluster{
		K:      k,
		Fabric: simnet.New(k, netCfg),
	}
	c.complete = c.completeOn
	return c
}

// completeOn is machine id's completion timer firing.
func (c *Cluster) completeOn(id uint64) { c.machines[id].completeFinished() }

// AddMachine creates a machine, attaches it to the fabric, and returns
// it. IDs are assigned sequentially from 0.
func (c *Cluster) AddMachine(cfg MachineConfig) *Machine {
	c.AddMachines([]MachineConfig{cfg})
	return c.machines[len(c.machines)-1]
}

// AddMachines is AddMachine for each of cfgs in order, with the
// machines, their names and their fabric nodes each in one allocation.
func (c *Cluster) AddMachines(cfgs []MachineConfig) {
	first := len(c.machines)
	w := 2 // bytes a name takes at most: "m" and the last id's digits
	for n := first + len(cfgs) - 1; n >= 10; n /= 10 {
		w++
	}
	b := make([]byte, 0, len(cfgs)*w)
	ends := make([]int, len(cfgs))
	for i := range cfgs {
		b = strconv.AppendInt(append(b, 'm'), int64(first+i), 10)
		ends[i] = len(b)
	}
	names := string(b)
	slab := make([]Machine, len(cfgs))
	c.machines = slices.Grow(c.machines, len(cfgs))
	start := 0
	for i, cfg := range cfgs {
		m := &slab[i]
		id := MachineID(first + i)
		m.init(c.K, id, names[start:ends[i]], cfg)
		m.completion.Init(c.K, c.complete, uint64(id))
		c.machines = append(c.machines, m)
		start = ends[i]
	}
	c.Fabric.AddNodes(simnet.NodeID(first), len(cfgs))
}

// Machines returns all machines in ID order (not a copy).
func (c *Cluster) Machines() []*Machine { return c.machines }

// Machine returns the machine with the given ID, or nil.
func (c *Cluster) Machine(id MachineID) *Machine {
	if id < 0 || int(id) >= len(c.machines) {
		return nil
	}
	return c.machines[id]
}

// NumMachines returns the machine count.
func (c *Cluster) NumMachines() int { return len(c.machines) }

// Node returns the fabric node for a machine.
func (c *Cluster) Node(id MachineID) *simnet.Node {
	return c.Fabric.Node(simnet.NodeID(id))
}
