// Package storage implements Quicksand's storage resource proclets
// (§3.1) and the flat storage abstraction built on them (§3.2): fine-
// grained storage proclets spread across machines so that an
// application combines their capacity and IOPS, in the style of Flat
// Datacenter Storage.
//
// Each storage proclet fronts a slice of a device with its own
// capacity, per-operation latency, bandwidth, and an IOPS cap modeled
// as minimum spacing between operation starts. Device contents are
// persistent state distinct from machine RAM; the proclet's RAM heap
// holds only metadata, so storage proclets migrate cheaply while the
// device slice is reattached (as with disaggregated flash).
package storage

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// Errors returned by storage operations.
var (
	ErrNoSpace    = errors.New("storage: device capacity exceeded")
	ErrNoKey      = errors.New("storage: no such object")
	ErrZeroShards = errors.New("storage: flat store needs at least one proclet")
)

// DeviceConfig describes the device slice behind one storage proclet.
type DeviceConfig struct {
	// CapacityBytes is the device slice's capacity.
	CapacityBytes int64
	// ReadLatency and WriteLatency are per-operation base costs.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// Bandwidth is the device slice's throughput in bytes/second.
	Bandwidth int64
	// IOPS caps operations per second (0 means uncapped).
	IOPS int64
}

const (
	methodStRead  = "st.read"
	methodStWrite = "st.write"
	methodStDel   = "st.del"
)

// stEntry is one stored object (metadata only; contents are abstract).
type stEntry struct {
	bytes int64
	val   any
}

type writeReq struct {
	key   string
	val   any
	bytes int64
}

// Proclet is a storage resource proclet.
type Proclet struct {
	sys  *core.System
	pr   *proclet.Proclet
	dev  DeviceConfig
	objs map[string]stEntry
	used int64

	nextFree sim.Time // device serialization + IOPS spacing

	// Reads/Writes count completed operations.
	Reads  metrics.Counter
	Writes metrics.Counter
}

// metadataHeap is the RAM footprint of a storage proclet.
const metadataHeap = 16 << 10

// newProcletOn creates a storage proclet on an explicit machine.
func newProcletOn(sys *core.System, name string, m cluster.MachineID, dev DeviceConfig) (*Proclet, error) {
	pr, err := sys.Runtime.Spawn(name, m, metadataHeap)
	if err != nil {
		return nil, err
	}
	sp := &Proclet{
		sys:  sys,
		pr:   pr,
		dev:  dev,
		objs: make(map[string]stEntry),
	}
	pr.Data = sp
	sys.Sched.RegisterProclet(pr, core.KindStorage)
	sp.registerMethods()
	return sp, nil
}

func (sp *Proclet) registerMethods() {
	sp.pr.Handle(methodStRead, func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		key := arg.Payload.(string)
		e, ok := sp.objs[key]
		if !ok {
			return proclet.Msg{}, fmt.Errorf("%w: %q", ErrNoKey, key)
		}
		sp.deviceOp(ctx.Proc, sp.dev.ReadLatency, e.bytes)
		sp.Reads.Inc()
		return proclet.Msg{Payload: e.val, Bytes: e.bytes}, nil
	})
	sp.pr.Handle(methodStWrite, func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		r := arg.Payload.(*writeReq)
		old, existed := sp.objs[r.key]
		delta := r.bytes
		if existed {
			delta -= old.bytes
		}
		if sp.used+delta > sp.dev.CapacityBytes {
			return proclet.Msg{}, fmt.Errorf("%w: %q needs %d, %d free",
				ErrNoSpace, r.key, r.bytes, sp.dev.CapacityBytes-sp.used)
		}
		sp.deviceOp(ctx.Proc, sp.dev.WriteLatency, r.bytes)
		sp.objs[r.key] = stEntry{bytes: r.bytes, val: r.val}
		sp.used += delta
		sp.Writes.Inc()
		return proclet.Msg{}, nil
	})
	sp.pr.Handle(methodStDel, func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
		key := arg.Payload.(string)
		e, ok := sp.objs[key]
		if !ok {
			return proclet.Msg{}, fmt.Errorf("%w: %q", ErrNoKey, key)
		}
		sp.deviceOp(ctx.Proc, sp.dev.WriteLatency, 0)
		delete(sp.objs, key)
		sp.used -= e.bytes
		return proclet.Msg{}, nil
	})
}

// deviceOp charges one device operation: ops serialize on the device,
// spaced at least 1/IOPS apart, each costing latency + bytes/bandwidth.
func (sp *Proclet) deviceOp(p *sim.Proc, lat time.Duration, bytes int64) {
	k := sp.sys.K
	start := k.Now()
	if sp.nextFree > start {
		start = sp.nextFree
	}
	dur := lat
	if sp.dev.Bandwidth > 0 {
		dur += time.Duration(float64(bytes) / float64(sp.dev.Bandwidth) * 1e9)
	}
	end := start.Add(dur)
	// IOPS cap: next op may not start sooner than 1/IOPS after this one.
	sp.nextFree = start.Add(dur)
	if sp.dev.IOPS > 0 {
		minNext := start.Add(time.Duration(1e9 / sp.dev.IOPS))
		if minNext > sp.nextFree {
			sp.nextFree = minNext
		}
	}
	p.SleepUntil(end)
}

// readObject fetches an object from this proclet (§3.1's ReadObject).
func (sp *Proclet) readObject(p *sim.Proc, from cluster.MachineID, key string) (any, error) {
	res, err := sp.sys.Runtime.Invoke(p, from, 0, sp.pr.ID(), methodStRead,
		proclet.Msg{Payload: key, Bytes: int64(len(key))})
	if err != nil {
		return nil, err
	}
	return res.Payload, nil
}

// writeObject stores an object (§3.1's WriteObject).
func (sp *Proclet) writeObject(p *sim.Proc, from cluster.MachineID, key string, val any, bytes int64) error {
	_, err := sp.sys.Runtime.Invoke(p, from, 0, sp.pr.ID(), methodStWrite,
		proclet.Msg{Payload: &writeReq{key: key, val: val, bytes: bytes}, Bytes: bytes})
	return err
}

// deleteObject removes an object.
func (sp *Proclet) deleteObject(p *sim.Proc, from cluster.MachineID, key string) error {
	_, err := sp.sys.Runtime.Invoke(p, from, 0, sp.pr.ID(), methodStDel,
		proclet.Msg{Payload: key, Bytes: int64(len(key))})
	return err
}

// destroy removes the storage proclet.
func (sp *Proclet) destroy() error {
	return sp.sys.Runtime.Destroy(sp.pr.ID())
}
