// Package simnet models the datacenter network that connects simulated
// machines: per-NIC transmit/receive bandwidth queues, propagation
// latency, per-message header overhead, and a software RPC layer with a
// fixed per-call overhead.
//
// The model charges exactly the costs that drive Quicksand's results —
// proclet migration time is dominated by state-bytes/bandwidth, and
// remote method invocation by latency plus payload-bytes/bandwidth —
// while staying deterministic under the sim kernel.
//
// Failure model: links can carry per-link faults (partitions, latency
// spikes, probabilistic message drops — see LinkFault) and nodes can be
// taken down. A down node fails new and in-flight calls with
// ErrNodeDown; a partitioned or lossy link silently eats messages, which
// callers observe as ErrTimeout once their per-call deadline expires.
// Calls with no deadline on a faulted link fail with ErrTimeout
// immediately rather than hanging forever.
package simnet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID identifies a machine's network attachment point.
type NodeID int

// Errors returned by transfers and calls.
var (
	ErrNodeDown   = errors.New("simnet: node is down")
	ErrNoHandler  = errors.New("simnet: no handler registered for method")
	ErrNoSuchNode = errors.New("simnet: unknown node")
	ErrTimeout    = errors.New("simnet: call timed out")
)

// ErrWouldBlock is returned by a FastHandler to decline a request it
// cannot serve without blocking. Call transparently falls back to the
// method's blocking Handler, which runs in a (pooled) simulated process.
var ErrWouldBlock = errors.New("simnet: fast handler would block")

// Config holds the network's performance parameters.
type Config struct {
	// Latency is the one-way propagation delay between any two nodes.
	Latency time.Duration
	// Bandwidth is each NIC's line rate in bytes per second, applied
	// independently to the transmit and receive directions.
	Bandwidth int64
	// RPCOverhead is the fixed software cost charged per RPC on top of
	// the wire time (dispatch, marshaling setup).
	RPCOverhead time.Duration
	// MsgOverheadBytes is the per-message header cost added to every
	// transfer's payload size.
	MsgOverheadBytes int64
	// CallTimeout is the default per-call deadline. Zero means calls
	// have no deadline (the fault-free configuration): no timer event
	// is armed and behavior is identical to a fabric without timeouts.
	// Fault injection installs a deadline so lost messages resolve as
	// ErrTimeout instead of hanging the caller.
	CallTimeout time.Duration
}

// DefaultConfig models a contemporary datacenter fabric: 100 Gb/s NICs,
// 2 us one-way latency, 1 us RPC software overhead.
func DefaultConfig() Config {
	return Config{
		Latency:          2 * time.Microsecond,
		Bandwidth:        12_500_000_000, // 100 Gb/s
		RPCOverhead:      time.Microsecond,
		MsgOverheadBytes: 64,
	}
}

// LinkFault is the fault state of one directed link. The zero value is
// a healthy link.
type LinkFault struct {
	// Partitioned drops every message on the link.
	Partitioned bool
	// ExtraLatency is added to the propagation delay of each message
	// (a latency spike).
	ExtraLatency time.Duration
	// DropProb drops each message independently with this probability,
	// drawn from the kernel RNG (deterministic per seed).
	DropProb float64
}

// healthy reports whether the fault is a no-op.
func (lf LinkFault) healthy() bool {
	return !lf.Partitioned && lf.ExtraLatency == 0 && lf.DropProb == 0
}

// linkKey addresses one direction of a node pair.
type linkKey struct {
	from, to NodeID
}

// Message is an RPC payload plus its on-wire size. Payloads are passed
// by reference (host memory); Bytes is what the network charges for.
// Word is one scalar carried inline, for a request or reply that is
// nothing more (an object id, a stored integer): it needs no box.
type Message struct {
	Payload any
	Bytes   int64
	Word    uint64
}

// Handler processes an RPC on the destination node. It runs in its own
// simulated process and may block (sleep, take locks, call other nodes).
type Handler func(p *sim.Proc, req Message) (Message, error)

// FastHandler processes an RPC inline in kernel context at the instant
// the request is delivered: no simulated process is created and no
// process switch happens. It must not block — any park attempt
// (sleep, lock, channel op) panics the kernel with a clear message. A
// fast handler may decline a particular request by returning
// ErrWouldBlock, which routes that request to the method's blocking
// Handler instead.
type FastHandler func(req Message) (Message, error)

// methodEntry is what one method dispatches to on a node: a fast
// handler, a blocking one, or both.
type methodEntry struct {
	method   string
	fast     FastHandler
	blocking Handler
}

// Node is a machine's attachment to the fabric.
type Node struct {
	ID     NodeID
	f      *Fabric
	txFree sim.Time
	rxFree sim.Time
	down   bool
	// errSrcDown and errDstDown are what checkPath answers while the node
	// is down, built on first use: a crashed node is refused at every
	// heartbeat and retry, always in the same words.
	errSrcDown, errDstDown error

	// Handlers by method. Almost every node serves a single method
	// (proclet.invoke), so the first two registered live inline and only a
	// node with more pays for a map.
	methods [2]methodEntry
	inline  int // slots of methods in use
	spill   map[string]*methodEntry

	// TxBytes and RxBytes count payload+header bytes through this NIC.
	TxBytes metrics.Counter
	RxBytes metrics.Counter
}

// Fabric is the cluster-wide network.
type Fabric struct {
	k   *sim.Kernel
	cfg Config
	// nodes is indexed by NodeID: the cluster assigns ids densely from
	// 0, so every send's two endpoint lookups are bounds-checked loads,
	// not map probes. An id nobody added holds nil.
	nodes []*Node

	// faults holds per-directed-link fault state. It stays empty on
	// fault-free runs, so the hot paths pay only a length check.
	faults map[linkKey]LinkFault

	// inflight tracks every outstanding Call so a node going down can
	// complete them with ErrNodeDown instead of stranding the callers.
	inflight []*callState

	deadlines sim.Lane // queued call deadlines (see armDeadline)

	// TransferLatency records end-to-end transfer times in seconds.
	TransferLatency *metrics.Histogram
	// Calls counts completed RPCs.
	Calls metrics.Counter
	// FastCalls counts RPCs served inline by a FastHandler (no handler
	// process). FastCalls <= Calls.
	FastCalls metrics.Counter
	// Timeouts counts calls that resolved with ErrTimeout.
	Timeouts metrics.Counter
	// Drops counts messages eaten by link faults.
	Drops metrics.Counter

	// callPool recycles per-Call state (see callState). The pool is a
	// stack, so reuse order is deterministic.
	callPool []*callState

	// obs, when set, records one causal span per Call. Nil (the
	// default) keeps the fast path allocation-free.
	obs *obs.Tracer
}

// SetTracer attaches a span tracer to the fabric. Pass nil to detach.
func (f *Fabric) SetTracer(t *obs.Tracer) { f.obs = t }

// New creates a fabric on the given kernel.
func New(k *sim.Kernel, cfg Config) *Fabric {
	if cfg.Bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Fabric{
		k:               k,
		cfg:             cfg,
		deadlines:       k.NewLane(),
		TransferLatency: metrics.NewHistogram("simnet.transfer_latency"),
	}
}

// Config returns the fabric's configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetCallTimeout changes the default per-call deadline (see
// Config.CallTimeout). Fault injectors use it to guarantee that no call
// outlives a lost message.
func (f *Fabric) SetCallTimeout(d time.Duration) { f.cfg.CallTimeout = d }

// SetLinkFault installs fault state on the link between a and b, in
// both directions, replacing any previous fault on that pair.
func (f *Fabric) SetLinkFault(a, b NodeID, lf LinkFault) {
	if f.faults == nil {
		f.faults = make(map[linkKey]LinkFault)
	}
	f.faults[linkKey{a, b}] = lf
	f.faults[linkKey{b, a}] = lf
}

// ClearLinkFault heals the link between a and b (both directions).
func (f *Fabric) ClearLinkFault(a, b NodeID) {
	delete(f.faults, linkKey{a, b})
	delete(f.faults, linkKey{b, a})
}

// LinkFaultOn returns the fault installed on the directed link from ->
// to (zero value if healthy).
func (f *Fabric) LinkFaultOn(from, to NodeID) LinkFault {
	if len(f.faults) == 0 {
		return LinkFault{}
	}
	return f.faults[linkKey{from, to}]
}

// lost decides whether a message sent now on from -> to is eaten by a
// link fault. It draws from the kernel RNG only when a probabilistic
// drop is installed, so fault-free runs consume no randomness.
func (f *Fabric) lost(from, to NodeID) bool {
	if len(f.faults) == 0 {
		return false
	}
	lf, ok := f.faults[linkKey{from, to}]
	if !ok || lf.healthy() {
		return false
	}
	if lf.Partitioned {
		f.Drops.Inc()
		return true
	}
	if lf.DropProb > 0 && f.k.Rand().Float64() < lf.DropProb {
		f.Drops.Inc()
		return true
	}
	return false
}

// extraLatency returns the latency spike installed on from -> to.
func (f *Fabric) extraLatency(from, to NodeID) time.Duration {
	if len(f.faults) == 0 {
		return 0
	}
	return f.faults[linkKey{from, to}].ExtraLatency
}

// AddNode attaches a new node. Adding a duplicate or negative ID
// panics. IDs need not arrive in order or start at 0; the table grows
// to the largest one.
func (f *Fabric) AddNode(id NodeID) *Node {
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative node id %d", id))
	}
	if f.Node(id) != nil {
		panic(fmt.Sprintf("simnet: duplicate node %d", id))
	}
	for int(id) >= len(f.nodes) {
		f.nodes = append(f.nodes, nil)
	}
	n := &Node{ID: id, f: f}
	f.nodes[id] = n
	return n
}

// Node returns the node with the given ID, or nil if there is none
// (never added, out of range, negative).
func (f *Fabric) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(f.nodes) {
		return nil
	}
	return f.nodes[id]
}

// SetDown marks a node as unreachable (true) or reachable (false).
// Taking a node down completes every in-flight call that touches it
// with ErrNodeDown — callers never hang on a dead peer.
func (n *Node) SetDown(down bool) {
	if n.down == down {
		return
	}
	n.down = down
	if down {
		n.f.failInflightOn(n.ID)
	}
}

// Down reports whether the node is unreachable.
func (n *Node) Down() bool { return n.down }

// failInflightOn resolves every outstanding call with an endpoint on
// the given node. Collect first: finish() swap-removes entries from the
// in-flight list.
func (f *Fabric) failInflightOn(id NodeID) {
	var hit []*callState
	for _, cs := range f.inflight {
		if cs.from == id || cs.to == id {
			hit = append(hit, cs)
		}
	}
	for _, cs := range hit {
		cs.finish(Message{}, fmt.Errorf("%w: node %d failed mid-call (%q)", ErrNodeDown, id, cs.method))
	}
}

// Handle registers an RPC handler for method on this node.
func (n *Node) Handle(method string, h Handler) {
	e := n.entry(method)
	if e.blocking != nil {
		panic(fmt.Sprintf("simnet: duplicate handler %q on node %d", method, n.ID))
	}
	e.blocking = h
}

// HandleFast registers an inline handler for method on this node. A
// method may carry both a fast and a blocking handler: the fast one
// runs first and may return ErrWouldBlock to route a request to the
// blocking one (per request, so the decision can depend on state).
func (n *Node) HandleFast(method string, h FastHandler) {
	e := n.entry(method)
	if e.fast != nil {
		panic(fmt.Sprintf("simnet: duplicate fast handler %q on node %d", method, n.ID))
	}
	e.fast = h
}

// lookup returns method's entry on this node, nil when nothing is
// registered under that name.
func (n *Node) lookup(method string) *methodEntry {
	for i := range n.methods[:n.inline] {
		if e := &n.methods[i]; e.method == method {
			return e
		}
	}
	return n.spill[method]
}

// entry is lookup for registration: the first time a method is named it
// claims the next inline slot or, those gone, a place in the spill map.
func (n *Node) entry(method string) *methodEntry {
	if e := n.lookup(method); e != nil {
		return e
	}
	if n.inline < len(n.methods) {
		e := &n.methods[n.inline]
		n.inline++
		e.method = method
		return e
	}
	if n.spill == nil {
		n.spill = make(map[string]*methodEntry)
	}
	e := &methodEntry{method: method}
	n.spill[method] = e
	return e
}

// wireTime returns how long size payload bytes occupy a NIC direction.
func (f *Fabric) wireTime(size int64) time.Duration {
	total := size + f.cfg.MsgOverheadBytes
	return time.Duration(float64(total) / float64(f.cfg.Bandwidth) * 1e9)
}

// deliveryTime reserves NIC time on both ends and returns the absolute
// virtual time at which a transfer of size bytes from -> to completes.
func (f *Fabric) deliveryTime(from, to *Node, size int64) sim.Time {
	now := f.k.Now()
	dur := f.wireTime(size)

	txStart := now
	if from.txFree > txStart {
		txStart = from.txFree
	}
	txEnd := txStart.Add(dur)
	from.txFree = txEnd

	rxStart := txStart.Add(f.cfg.Latency + f.extraLatency(from.ID, to.ID))
	if to.rxFree > rxStart {
		rxStart = to.rxFree
	}
	rxEnd := rxStart.Add(dur)
	to.rxFree = rxEnd

	from.TxBytes.Addn(size + f.cfg.MsgOverheadBytes)
	to.RxBytes.Addn(size + f.cfg.MsgOverheadBytes)
	return rxEnd
}

// checkPath validates both endpoints, returning the node structs.
func (f *Fabric) checkPath(from, to NodeID) (*Node, *Node, error) {
	src := f.Node(from)
	if src == nil {
		return nil, nil, fmt.Errorf("%w: %d", ErrNoSuchNode, from)
	}
	dst := f.Node(to)
	if dst == nil {
		return nil, nil, fmt.Errorf("%w: %d", ErrNoSuchNode, to)
	}
	if src.down {
		if src.errSrcDown == nil {
			src.errSrcDown = fmt.Errorf("%w: source %d", ErrNodeDown, from)
		}
		return nil, nil, src.errSrcDown
	}
	if dst.down {
		if dst.errDstDown == nil {
			dst.errDstDown = fmt.Errorf("%w: destination %d", ErrNodeDown, to)
		}
		return nil, nil, dst.errDstDown
	}
	return src, dst, nil
}

// Transfer moves size bytes from one node to another, blocking the
// calling process until delivery. Transfers between a node and itself
// complete immediately (no wire cost). On a partitioned or lossy link
// the transfer is eaten: the caller blocks for the fabric's call
// timeout (modeling the sender waiting out its acknowledgment window)
// and gets ErrTimeout.
func (f *Fabric) Transfer(p *sim.Proc, from, to NodeID, size int64) error {
	src, dst, err := f.checkPath(from, to)
	if err != nil {
		return err
	}
	if from == to {
		return nil
	}
	if f.lost(from, to) {
		if f.cfg.CallTimeout > 0 {
			p.Sleep(f.cfg.CallTimeout)
		}
		return fmt.Errorf("%w: transfer %d->%d (%d bytes) lost", ErrTimeout, from, to, size)
	}
	start := f.k.Now()
	done := f.deliveryTime(src, dst, size)
	p.SleepUntil(done)
	f.TransferLatency.ObserveDuration(f.k.Now().Sub(start))
	return nil
}

// TransferAsync schedules onDelivered to run when the transfer lands.
// For same-node transfers the callback runs at the current instant. On
// a faulted link the message is eaten and ErrTimeout returned; the
// callback never runs.
func (f *Fabric) TransferAsync(from, to NodeID, size int64, onDelivered func()) error {
	src, dst, err := f.checkPath(from, to)
	if err != nil {
		return err
	}
	if from == to {
		f.k.Schedule(f.k.Now(), onDelivered)
		return nil
	}
	if f.lost(from, to) {
		return fmt.Errorf("%w: transfer %d->%d (%d bytes) lost", ErrTimeout, from, to, size)
	}
	f.k.Schedule(f.deliveryTime(src, dst, size), onDelivered)
	return nil
}

// transferAsyncTagged is TransferAsync with a tagged callback, so
// pooled call state can discard deliveries aimed at a recycled
// generation without allocating a closure per message. It also returns
// the instant the transfer lands, which is how a call knows whether its
// deadline can still fire.
func (f *Fabric) transferAsyncTagged(from, to NodeID, size int64, fn func(uint64), tag uint64) (sim.Time, error) {
	src, dst, err := f.checkPath(from, to)
	if err != nil {
		return 0, err
	}
	at := f.k.Now()
	if from != to {
		if f.lost(from, to) {
			return 0, fmt.Errorf("%w: transfer %d->%d (%d bytes) lost", ErrTimeout, from, to, size)
		}
		at = f.deliveryTime(src, dst, size)
	}
	f.k.ScheduleTagged(at, fn, tag)
	return at, nil
}

// callState is one in-flight Call's plumbing, pooled on the Fabric. It
// carries pre-built closures for every stage of the round trip — send,
// request delivery, the (pooled) handler process, reply delivery,
// completion — so a steady-state RPC allocates nothing: not for the
// kernel events, not for the handler process (worker pool), not for its
// name (lazy), and not for the caller's wait (inline Cond slot).
//
// Timeouts make recycling subtle: a timed-out call can leave its
// delivery/reply/deadline events in the queue, and its blocking handler
// mid-run. Every such event carries the generation it was armed for and
// is discarded if the callState has since been recycled (gen bumped in
// putCall); a still-running handler pins the callState out of the pool
// (handlerLive) until its sendReply, which reclaims it.
type callState struct {
	f       *Fabric
	from    NodeID
	to      NodeID
	method  string
	req     Message
	h       Handler     // blocking handler, or nil
	fh      FastHandler // fast handler, or nil
	timeout time.Duration

	reply Message
	err   error
	done  bool
	cv    sim.Cond

	gen         uint64 // bumped on recycle; stale tagged events no-op
	ifIdx       int    // index in Fabric.inflight, -1 if not tracked
	handlerLive bool   // blocking handler process still references cs
	abandoned   bool   // owner returned before the handler finished

	// The deadline's instant, and the sequence number reserved for its
	// event at send time; zero once the event is queued.
	deadlineAt  sim.Time
	deadlineSeq uint64

	sendF    func() bool   // runs when the caller-side overhead has elapsed
	deliverT func(uint64)  // runs when the request lands on the destination
	finishT  func(uint64)  // runs when the reply lands back on the caller
	timeoutT func(uint64)  // runs when the call's deadline expires
	nameF    func() string // lazy handler-process name ("rpc:method@node")
	procF    func(p *sim.Proc)
}

func (f *Fabric) getCall() *callState {
	if n := len(f.callPool); n > 0 {
		cs := f.callPool[n-1]
		f.callPool[n-1] = nil
		f.callPool = f.callPool[:n-1]
		return cs
	}
	cs := &callState{f: f, ifIdx: -1}
	cs.sendF = cs.send
	cs.deliverT = cs.onDelivered
	cs.finishT = cs.onReplyDelivered
	cs.timeoutT = cs.onDeadline
	cs.nameF = cs.procName
	cs.procF = cs.runProc
	return cs
}

// putCall retires cs after its owning Call completes. If the blocking
// handler is still running it keeps a reference, so cs is marked
// abandoned instead of pooled; sendReply reclaims it.
func (f *Fabric) putCall(cs *callState) {
	cs.gen++
	if cs.handlerLive {
		cs.abandoned = true
		return
	}
	f.resetCall(cs)
	f.callPool = append(f.callPool, cs)
}

// resetCall clears a callState for reuse.
func (f *Fabric) resetCall(cs *callState) {
	cs.req, cs.reply = Message{}, Message{}
	cs.h, cs.fh, cs.err = nil, nil, nil
	cs.method = ""
	cs.timeout = 0
	cs.done = false
	cs.ifIdx = -1
	cs.deadlineSeq = 0
	cs.abandoned = false
}

// addInflight registers cs for failure notification (see SetDown).
func (f *Fabric) addInflight(cs *callState) {
	cs.ifIdx = len(f.inflight)
	f.inflight = append(f.inflight, cs)
}

// removeInflight unregisters cs via swap-remove; order is deterministic.
func (f *Fabric) removeInflight(cs *callState) {
	i := cs.ifIdx
	if i < 0 {
		return
	}
	last := len(f.inflight) - 1
	f.inflight[i] = f.inflight[last]
	f.inflight[i].ifIdx = i
	f.inflight[last] = nil
	f.inflight = f.inflight[:last]
	cs.ifIdx = -1
}

// send is the call's send stage: it runs in kernel context at the
// instant the caller-side overhead has elapsed, registers the call for
// failure notification, starts its deadline and puts the request on the
// wire. It reports whether the caller has anything left to wait for; a
// call that resolved right here (the node went down during the overhead,
// or the request was lost with no deadline to wait out) has not.
func (cs *callState) send() (wait bool) {
	f := cs.f
	f.addInflight(cs)
	if cs.timeout > 0 {
		cs.deadlineAt = f.k.Now().Add(cs.timeout)
		cs.deadlineSeq = f.k.ReserveSeq()
	}

	if cs.from == cs.to {
		// Lands now, before any deadline; a blocking handler arms it.
		f.k.ScheduleTagged(f.k.Now(), cs.deliverT, cs.gen)
	} else if f.lost(cs.from, cs.to) {
		if cs.timeout > 0 {
			cs.armDeadline() // nothing else will resolve the call
		} else {
			// No deadline to resolve the loss: fail now rather than
			// hang forever.
			f.Timeouts.Inc()
			cs.finish(Message{}, fmt.Errorf("%w: %q lost on link %d->%d", ErrTimeout, cs.method, cs.from, cs.to))
		}
	} else if at, terr := f.transferAsyncTagged(cs.from, cs.to, cs.req.Bytes, cs.deliverT, cs.gen); terr != nil {
		cs.finish(Message{}, terr)
	} else {
		cs.armDeadlineIfDue(at)
	}
	return !cs.done
}

// armDeadline queues the call's deadline event, at the instant and under
// the sequence number it was given at send time. A deadline is queued
// only once something can make it fire: the request or the reply is
// lost, either lands at or after the deadline (the deadline, reserved
// first, wins a tie), or the request is handed to a blocking handler,
// which may take any amount of time. The arrival instant of a message is
// known when it is sent and a node failure resolves its calls itself
// (SetDown), so a call that none of this happens to is certain to
// resolve first, and its deadline — which would find the call done and
// do nothing — is never queued. Sequence numbers are reserved either
// way, so every event that does run keeps its (time, seq). One that is
// queued sits out its whole timeout on the fabric's lane: under one
// timeout deadlines come due in the order their calls were sent, so they
// wait behind the lane's head, outside the heap. One that would come due
// before the lane's last (another CallWithTimeout) goes through the heap.
func (cs *callState) armDeadline() {
	if cs.deadlineSeq == 0 {
		return // no deadline, or already queued
	}
	cs.f.deadlines.ScheduleReserved(cs.deadlineAt, cs.deadlineSeq, cs.timeoutT, cs.gen)
	cs.deadlineSeq = 0
}

// armDeadlineIfDue queues the deadline if a message landing at the given
// instant would not beat it.
func (cs *callState) armDeadlineIfDue(lands sim.Time) {
	if lands >= cs.deadlineAt {
		cs.armDeadline()
	}
}

func (cs *callState) procName() string {
	return fmt.Sprintf("rpc:%s@%d", cs.method, cs.to)
}

// onDelivered runs in kernel context when the request reaches the
// destination node. The fast path serves the RPC inline; everything
// else spawns the blocking handler in a pooled process.
func (cs *callState) onDelivered(gen uint64) {
	if gen != cs.gen || cs.done {
		return // the call already resolved (timeout / node down) or recycled
	}
	if cs.fh != nil {
		reply, err := cs.fh(cs.req)
		if err == nil || !errors.Is(err, ErrWouldBlock) {
			if err == nil {
				cs.f.FastCalls.Inc()
			}
			cs.sendReply(reply, err)
			return
		}
		if cs.h == nil {
			cs.sendReply(Message{}, fmt.Errorf(
				"%w: fast handler for %q on node %d declined and no blocking handler is registered",
				ErrNoHandler, cs.method, cs.to))
			return
		}
	}
	cs.armDeadline() // a blocking handler may outlast any deadline
	cs.handlerLive = true
	cs.f.k.SpawnLazy(cs.nameF, cs.procF)
}

func (cs *callState) runProc(hp *sim.Proc) {
	reply, err := cs.h(hp, cs.req)
	cs.sendReply(reply, err)
}

// onDeadline fires when a call's deadline expires before its reply.
func (cs *callState) onDeadline(gen uint64) {
	if gen != cs.gen || cs.done {
		return
	}
	cs.f.Timeouts.Inc()
	cs.finish(Message{}, fmt.Errorf("%w: %q to node %d after %v", ErrTimeout, cs.method, cs.to, cs.timeout))
}

// sendReply routes the handler's result back to the caller, charging
// the return wire time for cross-node success replies (errors complete
// immediately, as before). It is also where a finished blocking handler
// releases its pin on the callState.
func (cs *callState) sendReply(reply Message, err error) {
	if cs.handlerLive {
		cs.handlerLive = false
		if cs.abandoned {
			// The caller timed out (or saw the node fail) and moved on
			// while this handler ran; nobody is waiting for the reply.
			cs.f.resetCall(cs)
			cs.f.callPool = append(cs.f.callPool, cs)
			return
		}
	}
	if cs.done {
		return // resolved underneath the handler (timeout / node down)
	}
	if err != nil || cs.from == cs.to {
		cs.finish(reply, err)
		return
	}
	if cs.f.lost(cs.to, cs.from) {
		if cs.timeout > 0 {
			cs.armDeadline() // reply eaten by the link; the deadline resolves the call
			return
		}
		cs.f.Timeouts.Inc()
		cs.finish(Message{}, fmt.Errorf("%w: reply for %q lost on link %d->%d",
			ErrTimeout, cs.method, cs.to, cs.from))
		return
	}
	cs.reply = reply // parked here while the reply crosses the wire
	if at, terr := cs.f.transferAsyncTagged(cs.to, cs.from, reply.Bytes, cs.finishT, cs.gen); terr != nil {
		cs.finish(Message{}, terr)
	} else {
		cs.armDeadlineIfDue(at)
	}
}

func (cs *callState) onReplyDelivered(gen uint64) {
	if gen != cs.gen {
		return
	}
	cs.finish(cs.reply, nil)
}

func (cs *callState) finish(reply Message, err error) {
	if cs.done {
		return
	}
	cs.reply, cs.err = reply, err
	cs.done = true
	cs.f.removeInflight(cs)
	cs.cv.Signal()
}

// Call performs a synchronous RPC: the request payload travels the wire,
// the handler runs on the destination node — inline via a FastHandler
// when one is registered, otherwise in its own pooled process — and the
// reply travels back. The calling process blocks for the round trip,
// bounded by the fabric's default deadline (Config.CallTimeout).
func (f *Fabric) Call(p *sim.Proc, from, to NodeID, method string, req Message) (Message, error) {
	return f.CallWithTimeout(p, from, to, method, req, 0)
}

// CallWithTimeout is Call with an explicit per-call deadline: d > 0
// bounds this call, d == 0 uses the fabric default, d < 0 forces no
// deadline. A call whose deadline expires resolves with ErrTimeout; the
// request may still execute on the destination (at-most-once).
func (f *Fabric) CallWithTimeout(p *sim.Proc, from, to NodeID, method string, req Message, d time.Duration) (Message, error) {
	_, dst, err := f.checkPath(from, to)
	if err != nil {
		return Message{}, err
	}
	e := dst.lookup(method)
	if e == nil {
		return Message{}, fmt.Errorf("%w: %q on node %d", ErrNoHandler, method, to)
	}
	fh, h := e.fast, e.blocking
	if d == 0 {
		d = f.cfg.CallTimeout
	}

	// Span bookkeeping is synchronous host-side work: it must read the
	// one-shot parent before the call's park (the overhead sleep below)
	// or an unrelated caller could consume it.
	var sp obs.SpanID
	if f.obs != nil {
		sp = f.obs.Start(obs.KindRPC, method, int(from), f.obs.TakeNext())
		f.obs.SetRoute(sp, int(from), int(to))
		f.obs.SetBytes(sp, int64(req.Bytes))
	}

	cs := f.getCall()
	cs.from, cs.to, cs.method, cs.req, cs.h, cs.fh = from, to, method, req, h, fh
	if d > 0 {
		cs.timeout = d
	}

	// The one park of the call: the fixed caller-side software overhead,
	// then the send stage in kernel context, then the round trip.
	p.SleepThenWait(f.cfg.RPCOverhead, cs.sendF, &cs.cv)

	reply, rerr := cs.reply, cs.err
	f.putCall(cs)
	if f.obs != nil {
		f.obs.SetErr(sp, rerr)
		f.obs.End(sp)
	}
	if rerr != nil {
		return Message{}, rerr
	}
	f.Calls.Inc()
	return reply, nil
}
