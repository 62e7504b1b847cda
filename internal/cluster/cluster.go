package cluster

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simnet"
)

// Cluster bundles a set of machines with the network fabric that
// connects them. Machine IDs and fabric node IDs coincide.
type Cluster struct {
	K      *sim.Kernel
	Fabric *simnet.Fabric

	machines []*Machine // indexed by MachineID: AddMachine assigns IDs densely from 0
}

// New creates an empty cluster on the kernel with the given network.
func New(k *sim.Kernel, netCfg simnet.Config) *Cluster {
	return &Cluster{
		K:      k,
		Fabric: simnet.New(k, netCfg),
	}
}

// AddMachine creates a machine, attaches it to the fabric, and returns
// it. IDs are assigned sequentially from 0.
func (c *Cluster) AddMachine(cfg MachineConfig) *Machine {
	id := MachineID(len(c.machines))
	m := NewMachine(c.K, id, fmt.Sprintf("m%d", id), cfg)
	c.machines = append(c.machines, m)
	c.Fabric.AddNode(simnet.NodeID(id))
	return m
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

// TotalCores sums core capacity across machines.
func (c *Cluster) TotalCores() float64 {
	var sum float64
	for _, m := range c.machines {
		sum += m.Cores()
	}
	return sum
}

// TotalMem sums memory capacity across machines.
func (c *Cluster) TotalMem() int64 {
	var sum int64
	for _, m := range c.machines {
		sum += m.MemCapacity()
	}
	return sum
}

// Node returns the fabric node for a machine.
func (c *Cluster) Node(id MachineID) *simnet.Node {
	return c.Fabric.Node(simnet.NodeID(id))
}
