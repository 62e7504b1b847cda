package simnet

// Partitioned network: cross-shard RPC over per-shard Fabrics.
//
// A Partition stitches the per-shard Fabrics of a partitioned
// simulation (sim.ParKernel) into one logical datacenter network.
// Intra-shard calls delegate to the shard's own Fabric and keep every
// property of the sequential fast path — inline FastHandler dispatch,
// pooled call state, zero allocations. Cross-shard calls travel through
// the ParKernel's mailboxes: the request is charged on the source NIC,
// crosses the partition boundary at the next window barrier, is charged
// on the destination NIC when it lands, runs the destination's fast or
// blocking handler on the destination shard's kernel, and the reply
// makes the symmetric trip back.
//
// The conservative-lookahead contract holds by construction: every
// cross-shard message is timestamped at least one propagation latency
// (Config.Latency) after it is sent, and the ParKernel's window width
// must be at most that latency (validated in NewPartition). This is
// exactly the "lookahead derived from minimum simnet propagation
// latency" of DESIGN.md §10.
//
// Model notes, where the cross-shard path deviates slightly from the
// single-fabric path (documented rather than hidden):
//
//   - Receive-side NIC occupancy is reserved when the message reaches
//     the destination shard, not presciently at send time; under
//     receive-side contention a cross-shard message can be charged
//     slightly later than the same message on a single fabric.
//   - Error replies return as minimal control messages after one
//     propagation latency instead of completing instantaneously.
//   - A destination node going down mid-handler does not proactively
//     fail in-flight cross-shard calls; the caller's deadline resolves
//     them (arm Config.CallTimeout when injecting faults, as on the
//     sequential fabric).
//
// The cross-shard path allocates per call. That is deliberate: it is
// the inter-partition slow path, expected to carry a small fraction of
// traffic (locality-aware sharding is the whole point of partitioning);
// the intra-shard fast path stays allocation-free.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// ShardNode addresses a node in a partitioned fabric: shard index plus
// the node's ID within that shard's Fabric. Node IDs are only unique
// within a shard (each shard's cluster numbers its machines from 0), so
// cross-shard addressing is always explicit about the shard.
type ShardNode struct {
	Shard int
	Node  NodeID
}

func (sn ShardNode) String() string { return fmt.Sprintf("%d.%d", sn.Shard, sn.Node) }

// crossLink addresses one direction of a cross-shard node pair.
type crossLink struct {
	from, to ShardNode
}

// crossCall is the caller-side state of one cross-shard RPC. It is
// created, waited on, and completed exclusively in the source shard's
// context; the destination shard only ever carries the pointer inside
// reply closures, never dereferences it.
type crossCall struct {
	reply Message
	err   error
	done  bool
	cv    sim.Cond
}

// Partition connects per-shard Fabrics across a ParKernel.
type Partition struct {
	pk      *sim.ParKernel
	fabrics []*Fabric

	// Cross-shard link faults. Guarded by a mutex because fault
	// schedules may be installed from any shard's injector; reads on
	// the call path take the read lock only when faults exist.
	mu            sync.RWMutex
	faults        map[crossLink]LinkFault
	faulted       bool
	CrossCalls    metrics.SharedCounter // completed cross-shard RPCs
	CrossBytes    metrics.SharedCounter // payload bytes across shard boundaries
	CrossTimeouts metrics.SharedCounter // cross-shard calls resolved by deadline/loss
	CrossDrops    metrics.SharedCounter // cross-shard messages eaten by link faults
}

// NewPartition builds the cross-shard plane over one Fabric per shard.
// Every fabric's propagation latency must be at least the ParKernel's
// lookahead window — the conservative protocol is only sound if no
// cross-shard interaction can take effect sooner than one window.
func NewPartition(pk *sim.ParKernel, fabrics []*Fabric) *Partition {
	if len(fabrics) != pk.NumShards() {
		panic(fmt.Sprintf("simnet: partition over %d fabrics but kernel has %d shards", len(fabrics), pk.NumShards()))
	}
	for i, f := range fabrics {
		if sim.Time(f.cfg.Latency.Nanoseconds()) < pk.Lookahead() {
			panic(fmt.Sprintf(
				"simnet: shard %d latency %v is below the lookahead window %v; cross-shard messages could violate causality",
				i, f.cfg.Latency, pk.Lookahead()))
		}
	}
	return &Partition{pk: pk, fabrics: fabrics}
}

// NumShards returns the number of shards in the partition.
func (pt *Partition) NumShards() int { return len(pt.fabrics) }

// Fabric returns shard s's fabric.
func (pt *Partition) Fabric(s int) *Fabric { return pt.fabrics[s] }

// SetCrossLinkFault installs fault state on the cross-shard link
// between a and b, in both directions. Intra-shard faults belong on the
// shard's own Fabric (SetLinkFault).
func (pt *Partition) SetCrossLinkFault(a, b ShardNode, lf LinkFault) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.faults == nil {
		pt.faults = make(map[crossLink]LinkFault)
	}
	pt.faults[crossLink{a, b}] = lf
	pt.faults[crossLink{b, a}] = lf
	pt.faulted = true
}

// ClearCrossLinkFault heals the cross-shard link between a and b.
func (pt *Partition) ClearCrossLinkFault(a, b ShardNode) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	delete(pt.faults, crossLink{a, b})
	delete(pt.faults, crossLink{b, a})
	pt.faulted = len(pt.faults) > 0
}

// crossFaultOn returns the fault installed on the directed cross link.
func (pt *Partition) crossFaultOn(from, to ShardNode) LinkFault {
	if !pt.faulted {
		return LinkFault{}
	}
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.faults[crossLink{from, to}]
}

// Call performs a synchronous RPC between any two nodes of the
// partitioned fleet. Same-shard calls delegate to the shard Fabric's
// Call (identical semantics and cost, including the zero-allocation
// fast path); cross-shard calls take the mailbox path described in the
// package comment.
func (pt *Partition) Call(p *sim.Proc, from, to ShardNode, method string, req Message) (Message, error) {
	return pt.CallWithTimeout(p, from, to, method, req, 0)
}

// CallWithTimeout is Call with an explicit deadline: d > 0 bounds this
// call, d == 0 uses the source fabric's default, d < 0 forces none.
func (pt *Partition) CallWithTimeout(p *sim.Proc, from, to ShardNode, method string, req Message, d time.Duration) (Message, error) {
	if from.Shard < 0 || from.Shard >= len(pt.fabrics) || to.Shard < 0 || to.Shard >= len(pt.fabrics) {
		return Message{}, fmt.Errorf("%w: shard out of range in %v -> %v", ErrNoSuchNode, from, to)
	}
	if from.Shard == to.Shard {
		return pt.fabrics[from.Shard].CallWithTimeout(p, from.Node, to.Node, method, req, d)
	}
	srcFab := pt.fabrics[from.Shard]
	src := srcFab.Node(from.Node)
	if src == nil {
		return Message{}, fmt.Errorf("%w: %v", ErrNoSuchNode, from)
	}
	if src.down {
		return Message{}, fmt.Errorf("%w: source %v", ErrNodeDown, from)
	}
	if d == 0 {
		d = srcFab.cfg.CallTimeout
	}
	hasDeadline := d > 0

	// One park, as on the fabric path: the fixed caller-side software
	// overhead, then this send stage in kernel context, then the round
	// trip.
	k := srcFab.k
	cc := &crossCall{}
	p.SleepThenWait(srcFab.cfg.RPCOverhead, func() bool {
		if hasDeadline {
			k.Schedule(k.Now().Add(d), func() {
				if cc.done {
					return
				}
				pt.CrossTimeouts.Inc()
				pt.complete(cc, Message{}, fmt.Errorf("%w: cross-shard %q to %v after %v", ErrTimeout, method, to, d))
			})
		}

		lf := pt.crossFaultOn(from, to)
		lost := lf.Partitioned || (lf.DropProb > 0 && k.Rand().Float64() < lf.DropProb)
		switch {
		case lost && !hasDeadline:
			// No deadline armed to resolve the loss: fail now rather than
			// hang forever (mirrors Fabric.Call).
			pt.CrossDrops.Inc()
			pt.CrossTimeouts.Inc()
			pt.complete(cc, Message{}, fmt.Errorf("%w: %q lost on cross link %v->%v", ErrTimeout, method, from, to))
		case lost:
			pt.CrossDrops.Inc() // the armed deadline resolves the call
		default:
			now := k.Now()
			wire := srcFab.wireTime(req.Bytes)
			txStart := now
			if src.txFree > txStart {
				txStart = src.txFree
			}
			txEnd := txStart.Add(wire)
			src.txFree = txEnd
			src.TxBytes.Addn(req.Bytes + srcFab.cfg.MsgOverheadBytes)
			pt.CrossBytes.Addn(req.Bytes)
			arrive := txEnd.Add(srcFab.cfg.Latency + lf.ExtraLatency)
			pt.pk.Send(from.Shard, to.Shard, arrive, func() {
				pt.deliver(cc, from, to, method, req, hasDeadline)
			})
		}
		return !cc.done
	}, &cc.cv)

	if cc.err != nil {
		return Message{}, cc.err
	}
	pt.CrossCalls.Inc()
	return cc.reply, nil
}

// deliver runs in the destination shard's kernel context when the
// request lands: it reserves receive-side NIC time, then dispatches the
// method's fast handler inline or its blocking handler in a pooled
// process, exactly like the sequential fabric's onDelivered.
func (pt *Partition) deliver(cc *crossCall, from, to ShardNode, method string, req Message, hasDeadline bool) {
	dstFab := pt.fabrics[to.Shard]
	k := dstFab.k
	dst := dstFab.Node(to.Node)
	switch {
	case dst == nil:
		pt.reply(cc, to, from, Message{}, fmt.Errorf("%w: %v", ErrNoSuchNode, to), hasDeadline)
		return
	case dst.down:
		pt.reply(cc, to, from, Message{}, fmt.Errorf("%w: destination %v", ErrNodeDown, to), hasDeadline)
		return
	}
	e := dst.lookup(method)
	if e == nil {
		pt.reply(cc, to, from, Message{}, fmt.Errorf("%w: %q on %v", ErrNoHandler, method, to), hasDeadline)
		return
	}
	fh, h := e.fast, e.blocking

	wire := dstFab.wireTime(req.Bytes)
	rxStart := k.Now()
	if dst.rxFree > rxStart {
		rxStart = dst.rxFree
	}
	rxEnd := rxStart.Add(wire)
	dst.rxFree = rxEnd
	dst.RxBytes.Addn(req.Bytes + dstFab.cfg.MsgOverheadBytes)

	k.Schedule(rxEnd, func() {
		if fh != nil {
			rep, err := fh(req)
			if err == nil || !errors.Is(err, ErrWouldBlock) {
				if err == nil {
					dstFab.FastCalls.Inc()
				}
				pt.reply(cc, to, from, rep, err, hasDeadline)
				return
			}
			if h == nil {
				pt.reply(cc, to, from, Message{}, fmt.Errorf(
					"%w: fast handler for %q on %v declined and no blocking handler is registered",
					ErrNoHandler, method, to), hasDeadline)
				return
			}
		}
		k.SpawnLazy(
			func() string { return fmt.Sprintf("xrpc:%s@%v", method, to) },
			func(hp *sim.Proc) {
				rep, err := h(hp, req)
				pt.reply(cc, to, from, rep, err, hasDeadline)
			})
	})
}

// reply runs in the responding shard's context and routes the handler
// result back to the caller. Success replies are charged on the wire in
// both directions; error replies travel as minimal control messages
// after one propagation latency.
func (pt *Partition) reply(cc *crossCall, responder, caller ShardNode, rep Message, err error, hasDeadline bool) {
	dstFab := pt.fabrics[responder.Shard]
	k := dstFab.k
	if err != nil {
		pt.pk.Send(responder.Shard, caller.Shard, k.Now().Add(dstFab.cfg.Latency), func() {
			pt.complete(cc, Message{}, err)
		})
		return
	}
	lf := pt.crossFaultOn(responder, caller)
	if lf.Partitioned || (lf.DropProb > 0 && k.Rand().Float64() < lf.DropProb) {
		pt.CrossDrops.Inc()
		if hasDeadline {
			return // the caller's armed deadline resolves the call
		}
		lossErr := fmt.Errorf("%w: cross-shard reply lost on link %v->%v", ErrTimeout, responder, caller)
		pt.pk.Send(responder.Shard, caller.Shard, k.Now().Add(dstFab.cfg.Latency), func() {
			pt.CrossTimeouts.Inc()
			pt.complete(cc, Message{}, lossErr)
		})
		return
	}
	node := dstFab.Node(responder.Node)
	wire := dstFab.wireTime(rep.Bytes)
	txStart := k.Now()
	if node != nil {
		if node.txFree > txStart {
			txStart = node.txFree
		}
	}
	txEnd := txStart.Add(wire)
	if node != nil {
		node.txFree = txEnd
		node.TxBytes.Addn(rep.Bytes + dstFab.cfg.MsgOverheadBytes)
	}
	pt.CrossBytes.Addn(rep.Bytes)
	arrive := txEnd.Add(dstFab.cfg.Latency + lf.ExtraLatency)
	pt.pk.Send(responder.Shard, caller.Shard, arrive, func() {
		// Back in the caller's shard: reserve receive-side NIC time,
		// then complete once the payload is fully received.
		srcFab := pt.fabrics[caller.Shard]
		sk := srcFab.k
		srcNode := srcFab.Node(caller.Node)
		rxStart := sk.Now()
		rwire := srcFab.wireTime(rep.Bytes)
		if srcNode != nil {
			if srcNode.rxFree > rxStart {
				rxStart = srcNode.rxFree
			}
		}
		rxEnd := rxStart.Add(rwire)
		if srcNode != nil {
			srcNode.rxFree = rxEnd
			srcNode.RxBytes.Addn(rep.Bytes + srcFab.cfg.MsgOverheadBytes)
		}
		sk.Schedule(rxEnd, func() { pt.complete(cc, rep, nil) })
	})
}

// complete resolves a cross call. Runs only in the caller's shard.
func (pt *Partition) complete(cc *crossCall, rep Message, err error) {
	if cc.done {
		return
	}
	cc.reply, cc.err = rep, err
	cc.done = true
	cc.cv.Signal()
}
