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

// crossCall is the caller-side state of one cross-shard RPC: its
// arguments, and its outcome. It is created, waited on, and completed
// exclusively in the source shard's context; the destination shard only
// ever carries the pointer inside reply closures, never dereferences it.
type crossCall struct {
	pt       *Partition
	src      *Node
	from, to ShardNode
	method   string
	req      Message
	timeout  time.Duration // the source fabric's deadline when the call started

	reply   Message
	err     error
	started bool // stage has handed out the caller-side overhead
	done    bool
	cv      sim.Cond
	stageF  func() sim.Wait // stage, bound once
}

// PartitionCall is one call through a Partition, in the shape of the
// fabric's Call: StartCall begins it, Stage is what its caller waits on —
// the caller-side overhead, then the round trip — and End takes the reply.
// Partition.Call is the three around one Await; a caller that is itself
// an Await stage steps Stage from its own. A same-shard call is the shard
// fabric's Call and allocates nothing; a cross-shard call allocates its
// state.
type PartitionCall struct {
	local *Call
	cross *crossCall
}

// Partition connects per-shard Fabrics across a ParKernel.
type Partition struct {
	pk            *sim.ParKernel
	fabrics       []*Fabric
	CrossCalls    metrics.SharedCounter // completed cross-shard RPCs
	CrossBytes    metrics.SharedCounter // payload bytes across shard boundaries
	CrossTimeouts metrics.SharedCounter // cross-shard calls resolved by deadline
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

// Call performs a synchronous RPC between any two nodes of the
// partitioned fleet. Same-shard calls delegate to the shard Fabric's
// Call (identical semantics and cost, including the zero-allocation
// fast path); cross-shard calls take the mailbox path described in the
// package comment. A cross-shard call is bounded by the source fabric's
// default deadline (Config.CallTimeout).
func (pt *Partition) Call(p *sim.Proc, from, to ShardNode, method string, req Message) (Message, error) {
	pc, err := pt.StartCall(from, to, method, req)
	if err != nil {
		return Message{}, err
	}
	// One park, as on the fabric path: the fixed caller-side software
	// overhead, then the send stage in kernel context, then the round trip.
	if pc.local != nil {
		p.Await(pc.local.Stage(), pc.local.stageF)
	} else {
		p.Await(pc.cross.stage(), pc.cross.stageF)
	}
	return pc.End()
}

// StartCall begins the call Call makes, up to its one park: it checks the
// shards and, on a same-shard call, starts the shard fabric's Call; on a
// cross-shard one, it checks the source node and reads the source
// fabric's deadline. An error here is the call's whole outcome.
func (pt *Partition) StartCall(from, to ShardNode, method string, req Message) (PartitionCall, error) {
	if from.Shard < 0 || from.Shard >= len(pt.fabrics) || to.Shard < 0 || to.Shard >= len(pt.fabrics) {
		return PartitionCall{}, fmt.Errorf("%w: shard out of range in %v -> %v", ErrNoSuchNode, from, to)
	}
	srcFab := pt.fabrics[from.Shard]
	if from.Shard == to.Shard {
		cs, err := srcFab.StartCall(from.Node, to.Node, method, req, 0)
		return PartitionCall{local: cs}, err
	}
	src := srcFab.Node(from.Node)
	if src == nil {
		return PartitionCall{}, fmt.Errorf("%w: %v", ErrNoSuchNode, from)
	}
	if src.down {
		return PartitionCall{}, fmt.Errorf("%w: source %v", ErrNodeDown, from)
	}
	cc := &crossCall{pt: pt, src: src, from: from, to: to, method: method, req: req, timeout: srcFab.cfg.CallTimeout}
	cc.stageF = cc.stage
	return PartitionCall{cross: cc}, nil
}

// Stage advances the call as far as it goes without waiting and returns
// what its caller waits on next, or Resume once it is over; End may be
// called then.
func (pc PartitionCall) Stage() sim.Wait {
	if pc.local != nil {
		return pc.local.Stage()
	}
	return pc.cross.stage()
}

// End returns the call's reply, once Stage has returned Resume, and
// retires the call.
func (pc PartitionCall) End() (Message, error) {
	if pc.local != nil {
		return pc.local.End()
	}
	cc := pc.cross
	if cc.err != nil {
		return Message{}, cc.err
	}
	cc.pt.CrossCalls.Inc()
	return cc.reply, nil
}

// stage is a cross-shard call's Stage: After the caller-side overhead the
// first time; then, the overhead over, send; and Resume once complete has
// signaled cv.
func (cc *crossCall) stage() sim.Wait {
	switch {
	case !cc.started:
		cc.started = true
		return sim.After(cc.pt.fabrics[cc.from.Shard].cfg.RPCOverhead)
	case cc.done:
		return sim.Resume
	}
	cc.send()
	return sim.On(&cc.cv)
}

// send arms the call's deadline, charges the request on the source NIC
// and hands it to the destination shard's mailbox.
func (cc *crossCall) send() {
	pt, from, to, method, req := cc.pt, cc.from, cc.to, cc.method, cc.req
	srcFab := pt.fabrics[from.Shard]
	k := srcFab.k
	if d := cc.timeout; d > 0 {
		k.Schedule(k.Now().Add(d), func() {
			if cc.done {
				return
			}
			pt.CrossTimeouts.Inc()
			pt.complete(cc, Message{}, fmt.Errorf("%w: cross-shard %q to %v after %v", ErrTimeout, method, to, d))
		})
	}

	src := cc.src
	txStart := k.Now()
	if src.txFree > txStart {
		txStart = src.txFree
	}
	txEnd := txStart.Add(srcFab.wireTime(req.Bytes))
	src.txFree = txEnd
	src.TxBytes.Addn(req.Bytes + srcFab.cfg.MsgOverheadBytes)
	pt.CrossBytes.Addn(req.Bytes)
	pt.pk.Send(from.Shard, to.Shard, txEnd.Add(srcFab.cfg.Latency), func() {
		pt.deliver(cc, from, to, method, req)
	})
}

// deliver runs in the destination shard's kernel context when the
// request lands: it reserves receive-side NIC time, then dispatches the
// method's fast handler inline or its blocking handler in a pooled
// process, exactly like the sequential fabric's onDelivered.
func (pt *Partition) deliver(cc *crossCall, from, to ShardNode, method string, req Message) {
	dstFab := pt.fabrics[to.Shard]
	k := dstFab.k
	dst := dstFab.Node(to.Node)
	switch {
	case dst == nil:
		pt.reply(cc, to, from, Message{}, fmt.Errorf("%w: %v", ErrNoSuchNode, to))
		return
	case dst.down:
		pt.reply(cc, to, from, Message{}, fmt.Errorf("%w: destination %v", ErrNodeDown, to))
		return
	}
	e := dst.lookup(method)
	if e == nil {
		pt.reply(cc, to, from, Message{}, fmt.Errorf("%w: %q on %v", ErrNoHandler, method, to))
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
				pt.reply(cc, to, from, rep, err)
				return
			}
			if h == nil {
				pt.reply(cc, to, from, Message{}, fmt.Errorf(
					"%w: fast handler for %q on %v declined and no blocking handler is registered",
					ErrNoHandler, method, to))
				return
			}
		}
		k.SpawnLazy(
			func() string { return fmt.Sprintf("xrpc:%s@%v", method, to) },
			func(hp *sim.Proc) {
				rep, err := h(hp, req)
				pt.reply(cc, to, from, rep, err)
			})
	})
}

// reply runs in the responding shard's context and routes the handler
// result back to the caller. Success replies are charged on the wire in
// both directions; error replies travel as minimal control messages
// after one propagation latency.
func (pt *Partition) reply(cc *crossCall, responder, caller ShardNode, rep Message, err error) {
	dstFab := pt.fabrics[responder.Shard]
	k := dstFab.k
	if err != nil {
		pt.pk.Send(responder.Shard, caller.Shard, k.Now().Add(dstFab.cfg.Latency), func() {
			pt.complete(cc, Message{}, err)
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
	pt.pk.Send(responder.Shard, caller.Shard, txEnd.Add(dstFab.cfg.Latency), func() {
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
