package proclet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The runtime's cost model. It matches Nu's reported costs:
// sub-millisecond migration for small proclets (fixed ~50 us + pinning
// ~30 us/MiB on top of wire time) and ~100 ns local dispatch.
const (
	// migrationFixedOverhead is the control-plane cost charged once per
	// migration: pausing, page-table setup, directory update.
	migrationFixedOverhead = 50 * time.Microsecond
	// migrationPerMiB is the kernel-side page pinning/mapping cost per
	// MiB of migrated heap (the paper's §5 notes this as today's
	// kernel bottleneck).
	migrationPerMiB = 30 * time.Microsecond
	// directoryLookup is the cost of consulting the directory service
	// on a location-cache miss.
	directoryLookup = 5 * time.Microsecond
	// localInvokeOverhead is the dispatch cost of a same-machine
	// method invocation (a function call).
	localInvokeOverhead = 100 * time.Nanosecond
	// maxInvokeRetries bounds routing retries while chasing a moving
	// proclet.
	maxInvokeRetries = 16
	// lazyRemotePenalty is the per-invocation cost of touching
	// not-yet-copied state through coherent remote memory during a
	// post-copy (CXL-style) migration window (§5: "postponing the
	// copying of data").
	lazyRemotePenalty = 4 * time.Microsecond

	// retryBackoffBase is the delay before the first retry after a
	// retryable failure (ErrNodeDown, ErrTimeout); it doubles per
	// attempt. Routing chases (ErrMoved) never back off.
	retryBackoffBase = 100 * time.Microsecond
	// retryBackoffMax caps the exponential backoff.
	retryBackoffMax = 2 * time.Millisecond
	// retryJitter is the fraction of each backoff randomized, drawn
	// from the kernel RNG so schedules stay deterministic per seed. A
	// delay d becomes uniform in [d*(1-j/2), d*(1+j/2)].
	retryJitter = 0.5
)

// Runtime is the distributed proclet runtime spanning every machine in
// the cluster (Nu's "distributed runtime" that avoids cold starts).
type Runtime struct {
	Cluster *cluster.Cluster
	Trace   *obs.Log

	k *sim.Kernel

	// procs is the directory and every machine's resident table in one
	// slice indexed by proclet id: Spawn hands ids out densely from 1 and
	// never reuses one. A non-nil procs[id] is the authoritative record —
	// the proclet lives on pr.machine — and stays through an outage (an
	// orphan is still listed under its dead machine); Destroy and Abandon
	// nil it. Machine m holds the proclet only while pr.resident is also
	// set. The slice is as long as the number of proclets this runtime
	// ever spawned — at most 34 in the benchmark's workloads and the
	// scenario library, 122 in the experiment that splits shards most
	// (ext-tiering) — so a workload that churns proclets pays 8 bytes per
	// dead id, where a map paid nothing.
	procs []*Proclet
	// caches[m] is machine m's location cache, indexed by proclet id and
	// grown only to the highest id m has looked up: the cached machine
	// plus one, 0 for no entry.
	caches [][]int32

	// MigrationLatency records blackout times (the window in which new
	// invocations block), for both pre- and post-copy migrations.
	// LazyResidence records post-copy start-to-resident times.
	MigrationLatency MigrationRecord
	LazyResidence    metrics.Summary
	// Counters for runtime activity.
	Migrations       metrics.Counter
	DirectoryLookups metrics.Counter
	LocalInvokes     metrics.Counter
	RemoteInvokes    metrics.Counter
	LazyPenalties    metrics.Counter
	// FastInvokes counts invocations of FastMethods served without a
	// Ctx or handler process (both local and remote-inline).
	FastInvokes metrics.Counter
	// InvokeRetries counts backoff retries after retryable invocation
	// failures (node down, timeout); InvokeTimeouts counts attempts
	// that resolved with simnet.ErrTimeout.
	InvokeRetries  metrics.Counter
	InvokeTimeouts metrics.Counter

	// invPool recycles Invocations, and with them the request envelopes
	// they carry, so steady-state invocations allocate nothing; ctxPool
	// does the same for method Ctxs. Both are stacks, so invocations
	// that nest — a method calling another local proclet — each get
	// their own.
	invPool []*Invocation
	ctxPool []*Ctx
	runPool []*handlerRun

	// obs, when set, records invocation and migration spans. Nil (the
	// default) keeps the invoke fast path allocation-free.
	obs *obs.Tracer
}

// SetTracer attaches a span tracer to the runtime. Pass nil to detach.
func (rt *Runtime) SetTracer(t *obs.Tracer) { rt.obs = t }

// invokeReq is the wire format of a remote invocation.
type invokeReq struct {
	From   ID
	Target ID
	Method string
	Arg    Msg
}

// MigrationRecord is the exact record of migration blackouts: a
// metrics.Summary in integer nanoseconds whose Mean and Max read
// seconds, the unit Runtime.MigrationLatency has always reported and
// the one benchmark/probes.go turns into its simulated µs per migration.
type MigrationRecord struct{ metrics.Summary }

// Mean returns the mean blackout in seconds (0 before any migration).
func (r *MigrationRecord) Mean() float64 { return r.Summary.Mean() / 1e9 }

// Max returns the longest blackout in seconds (0 before any migration).
func (r *MigrationRecord) Max() float64 { return float64(r.Summary.Max()) / 1e9 }

// NewRuntime creates a runtime over an already-populated cluster (all
// machines must be added before calling). tl may be nil to disable
// tracing.
func NewRuntime(c *cluster.Cluster, tl *obs.Log) *Runtime {
	rt := &Runtime{
		Cluster: c,
		Trace:   tl,
		k:       c.K,
		procs:   make([]*Proclet, 1), // id 0 is "no proclet"
		caches:  make([][]int32, len(c.Machines())),
	}
	// One registration a fabric serves invocations on every machine: fast
	// methods inline at request delivery, anything else on serveProc, or
	// a staged method on the fabric's staged handler, serveStaged.
	c.Fabric.HandleStaged(rt.serveStaged)
	c.Fabric.Handle(methodInvoke, rt.serveProc)
	c.Fabric.HandleFast(methodInvoke, rt.execFastOn)
	return rt
}

// methodInvoke is the fabric method a remote invocation travels as.
const methodInvoke = "proclet.invoke"

// serveProc is a remote invocation's blocking handler on machine to: the
// staged handler's run, on a process for a blocking method.
func (rt *Runtime) serveProc(to simnet.NodeID, hp *sim.Proc, req simnet.Message) (simnet.Message, error) {
	h := rt.startRun(cluster.MachineID(to), req)
	hp.Await(h.stage(), h.stageF)
	if e := h.blocking; e != nil {
		h.res, h.err = rt.serveBlocking(hp, h.pr, e, h.req.From, h.req.Arg)
	}
	return h.End()
}

// Spawn creates a proclet with heapBytes of state on machine m. It
// fails with cluster.ErrNoMemory when m cannot hold the heap.
func (rt *Runtime) Spawn(name string, m cluster.MachineID, heapBytes int64) (*Proclet, error) {
	mach := rt.Cluster.Machine(m)
	if mach == nil {
		return nil, fmt.Errorf("%w: machine %d", ErrNotFound, m)
	}
	if err := mach.AllocMem(heapBytes); err != nil {
		return nil, err
	}
	pr := &Proclet{
		id:         ID(len(rt.procs)),
		name:       name,
		rt:         rt,
		machine:    m,
		resident:   true,
		allocEpoch: mach.Epoch(),
		heapBytes:  heapBytes,
	}
	rt.procs = append(rt.procs, pr)
	rt.Trace.Emitf(rt.k.Now(), obs.KindSpawn, name, -1, int(m), "heap=%d id=%d", heapBytes, int64(pr.id))
	return pr, nil
}

// Destroy removes a proclet, releasing its memory. Blocked and future
// invocations fail with ErrDead (after routing notices the removal).
func (rt *Runtime) Destroy(id ID) error {
	pr := rt.Lookup(id)
	if pr == nil {
		return ErrNotFound
	}
	if pr.state == StateMigrating {
		return ErrMigrating
	}
	m := pr.machine
	rt.freeHeap(pr)
	pr.heapBytes = 0
	pr.state = StateDead
	pr.cancelTasks()
	rt.procs[id] = nil
	pr.unblocked.Broadcast()
	rt.Trace.Emitf(rt.k.Now(), obs.KindDestroy, pr.name, int(m), -1, "id=%d", int64(id))
	return nil
}

// Lookup returns the proclet with the given ID, or nil. It is a
// zero-cost host-side accessor for controllers and tests; simulated
// code pays routing costs through Invoke.
func (rt *Runtime) Lookup(id ID) *Proclet {
	if pr := rt.listed(id); pr != nil && pr.resident {
		return pr
	}
	return nil
}

// listed returns the directory's record for id: the proclet, resident or
// orphaned, or nil when there is none.
func (rt *Runtime) listed(id ID) *Proclet {
	if uint64(id) >= uint64(len(rt.procs)) {
		return nil
	}
	return rt.procs[id]
}

// localOn returns the proclet if machine m holds it right now.
func (rt *Runtime) localOn(m cluster.MachineID, id ID) *Proclet {
	if pr := rt.listed(id); pr != nil && pr.resident && pr.machine == m {
		return pr
	}
	return nil
}

// Proclets returns all live proclets in ascending ID order, so dumps
// built from it are deterministic.
func (rt *Runtime) Proclets() []*Proclet {
	var out []*Proclet
	for _, pr := range rt.procs {
		if pr != nil && pr.resident {
			out = append(out, pr)
		}
	}
	return out
}

// cached returns the target's location in machine m's cache.
func (rt *Runtime) cached(m cluster.MachineID, target ID) (cluster.MachineID, bool) {
	if c := rt.caches[m]; uint64(target) < uint64(len(c)) && c[target] != 0 {
		return cluster.MachineID(c[target] - 1), true
	}
	return 0, false
}

// cache records on machine m that the proclet lives on loc. Only listed
// ids are ever cached, so a cache is never longer than procs.
func (rt *Runtime) cache(m cluster.MachineID, id ID, loc cluster.MachineID) {
	c := rt.caches[m]
	if n := int(id) + 1 - len(c); n > 0 {
		c = append(c, make([]int32, n)...)
		rt.caches[m] = c
	}
	c[id] = int32(loc) + 1
}

// uncache drops machine m's cached location of the proclet.
func (rt *Runtime) uncache(m cluster.MachineID, id ID) {
	if c := rt.caches[m]; uint64(id) < uint64(len(c)) {
		c[id] = 0
	}
}

// Invoke calls a method on the target proclet from fromMachine. from is
// the calling proclet (0 for external clients); it is used for affinity
// accounting. The call blocks the calling process until the reply
// arrives, chasing stale location caches as needed: it is an Invocation
// driven by one Await, with a local blocking method run on p.
func (rt *Runtime) Invoke(p *sim.Proc, fromMachine cluster.MachineID, from ID, target ID, method string, arg Msg) (Msg, error) {
	return rt.Begin(fromMachine, from, target, method, arg).Await(p)
}

func (rt *Runtime) getCtx() *Ctx {
	if n := len(rt.ctxPool); n > 0 {
		c := rt.ctxPool[n-1]
		rt.ctxPool[n-1] = nil
		rt.ctxPool = rt.ctxPool[:n-1]
		return c
	}
	return &Ctx{}
}

func (rt *Runtime) putCtx(c *Ctx) {
	*c = Ctx{}
	rt.ctxPool = append(rt.ctxPool, c)
}

// backoffDelay returns the capped exponential backoff for the given
// retry ordinal (0 = first retry), with deterministic jitter drawn from
// the kernel RNG.
func (rt *Runtime) backoffDelay(retry int) time.Duration {
	return jittered(backoff(retryBackoffBase, retryBackoffMax, retry), rt.k.Rand().Float64())
}

// backoff is the delay before retry (0 = the first) when it doubles
// from base and is capped at limit.
func backoff(base, limit time.Duration, retry int) time.Duration {
	if retry >= 30 {
		return limit
	}
	d := base << uint(retry)
	if d > limit || d <= 0 {
		return limit
	}
	return d
}

// jittered spreads d by retryJitter, where u is a uniform draw in [0, 1).
func jittered(d time.Duration, u float64) time.Duration {
	return time.Duration(float64(d) * (1 - retryJitter/2 + float64(retryJitter*u)))
}

// retryable reports whether an invocation error is worth retrying after
// a backoff: the node may restart, the partition may heal, recovery
// may re-place the target elsewhere, or a lapsed lease may be renewed
// (or its holder deposed and a replica promoted).
func retryable(err error) bool {
	return errors.Is(err, simnet.ErrNodeDown) || errors.Is(err, simnet.ErrTimeout) ||
		errors.Is(err, ErrUnavailable)
}

// execFastOn serves a remote invocation inline in kernel context at the
// instant the request lands on machine to. It declines to a handler — the
// staged one for a staged method (simnet.ErrStaged), else the blocking one
// — when the proclet is migrating or in a post-copy lazy window (the
// handler waits those out), or the method is not fast, or its fast
// registration declined.
func (rt *Runtime) execFastOn(to simnet.NodeID, req simnet.Message) (Msg, error) {
	r := req.Payload.(*invokeReq)
	pr := rt.localOn(cluster.MachineID(to), r.Target)
	if pr == nil {
		return Msg{}, ErrMoved
	}
	if pr.state == StateMigrating || pr.lazyWindow {
		return Msg{}, decline(pr.method(r.Method))
	}
	res, e, err := rt.serveInline(pr, r.From, r.Method, r.Arg)
	if e != nil {
		return Msg{}, decline(e)
	}
	return res, err
}

// decline is how execFastOn turns down an invocation of e.
func decline(e *methodEntry) error {
	if e != nil && e.staged != nil {
		return simnet.ErrStaged
	}
	return simnet.ErrWouldBlock
}

// handlerRun is a remote invocation a fast dispatch declined: wait out a
// migration and the post-copy penalty, then serve the method inline, step
// its staged run, or stop at a blocking method for the blocking handler's
// process to run. req copies the caller's envelope, which the caller's
// Invocation may reuse meanwhile. Pooled on the Runtime.
type handlerRun struct {
	rt       *Runtime
	m        cluster.MachineID
	req      invokeReq
	pr       *Proclet     // the target, once no migration is in the way
	st       Staged       // the method's staged run, once started
	blocking *methodEntry // the method, if it is neither fast nor staged
	res      Msg
	err      error
	cs       *simnet.Call    // the call to answer, on the staged handler
	stageF   func() sim.Wait // stage, bound once
}

// startRun starts the run of a remote invocation on machine m.
func (rt *Runtime) startRun(m cluster.MachineID, req simnet.Message) *handlerRun {
	var h *handlerRun
	if n := len(rt.runPool); n > 0 {
		h, rt.runPool = rt.runPool[n-1], rt.runPool[:n-1]
	} else {
		h = &handlerRun{rt: rt}
		h.stageF = h.stage
	}
	h.m, h.req = m, *req.Payload.(*invokeReq)
	return h
}

// serveStaged is the fabric's StagedHandler: a run whose stage answers cs.
func (rt *Runtime) serveStaged(to simnet.NodeID, req simnet.Message, cs *simnet.Call) func() sim.Wait {
	h := rt.startRun(cluster.MachineID(to), req)
	h.cs = cs
	return h.stageF
}

// stage steps the run and, on the staged handler, answers once it is over.
func (h *handlerRun) stage() sim.Wait {
	w := h.Step()
	if cs := h.cs; w == sim.Resume && cs != nil {
		cs.Reply(h.End())
	}
	return w
}

func (h *handlerRun) Step() sim.Wait {
	rt := h.rt
	if h.st != nil {
		if w := h.st.Step(); w != sim.Resume {
			return w
		}
		h.res, h.err = rt.endStaged(h.pr, h.st, h.req.From, h.req.Arg)
		return sim.Resume
	}
	if h.pr == nil {
		pr := rt.localOn(h.m, h.req.Target)
		if pr == nil {
			h.err = ErrMoved
			return sim.Resume
		}
		if pr.state == StateMigrating {
			return sim.On(&pr.unblocked)
		}
		h.pr = pr
		if d := rt.lazyPenalty(pr); d > 0 {
			return sim.After(d)
		}
	}
	res, e, err := rt.serveInline(h.pr, h.req.From, h.req.Method, h.req.Arg)
	switch {
	case e == nil:
		h.res, h.err = res, err
	case e.staged == nil:
		h.blocking = e
	default:
		h.st = rt.startStaged(h.pr, e, h.req.Arg)
		return h.Step()
	}
	return sim.Resume
}

func (h *handlerRun) End() (Msg, error) {
	rt, res, err := h.rt, h.res, h.err
	*h = handlerRun{rt: rt, stageF: h.stageF}
	rt.runPool = append(rt.runPool, h)
	return res, err
}

// serveInline is local dispatch's inline half, shared by every way an
// invocation reaches a proclet: it runs the method's fast registration and
// counts and accounts it, or fails with ErrNoMethod. Fast methods skip the
// Ctx and the active count: they execute atomically within the current
// event, so a migration drain can never observe one in flight. When the
// method has no fast registration, or it declined with
// simnet.ErrWouldBlock, serveInline returns the method's entry instead,
// for serveBlocking to run on a process or startStaged to start.
func (rt *Runtime) serveInline(pr *Proclet, from ID, method string, arg Msg) (Msg, *methodEntry, error) {
	e := pr.method(method)
	if e == nil {
		return Msg{}, nil, fmt.Errorf("%w: %q on %s", ErrNoMethod, method, pr.name)
	}
	if e.fast != nil {
		res, err := e.fast(pr, arg)
		if !simnet.Declined(err) {
			rt.FastInvokes.Inc()
			rt.account(pr, from, arg, res)
			return res, nil, err
		}
	}
	return Msg{}, e, nil
}

// startStaged and endStaged are local dispatch's staged half, around the
// steps of e's staged run: they count it active, for migration drains, as
// serveBlocking does, and account it.
func (rt *Runtime) startStaged(pr *Proclet, e *methodEntry, arg Msg) Staged {
	pr.active++
	return e.staged(pr, arg)
}

func (rt *Runtime) endStaged(pr *Proclet, st Staged, from ID, arg Msg) (Msg, error) {
	res, err := st.End()
	if pr.active--; pr.active == 0 {
		pr.drained.Broadcast()
	}
	rt.account(pr, from, arg, res)
	return res, err
}

// serveBlocking is local dispatch's process half: it runs e's blocking
// registration on p, tracking the active-invocation count for migration
// drains.
func (rt *Runtime) serveBlocking(p *sim.Proc, pr *Proclet, e *methodEntry, from ID, arg Msg) (Msg, error) {
	if e.blocking == nil {
		return Msg{}, fmt.Errorf("%w: %q on %s", ErrNoMethod, e.name, pr.name)
	}
	pr.active++
	ctx := rt.getCtx()
	ctx.Proc, ctx.Self = p, pr
	res, err := e.blocking(ctx, arg)
	rt.putCtx(ctx)
	pr.active--
	if pr.active == 0 {
		pr.drained.Broadcast()
	}
	rt.account(pr, from, arg, res)
	return res, err
}

// account records an executed invocation for the proclet's stats and
// the scheduler's affinity signal.
func (rt *Runtime) account(pr *Proclet, from ID, arg, res Msg) {
	pr.invokes.Inc()
	if from != 0 {
		bytes := arg.Bytes + res.Bytes
		pr.addComm(from, bytes)
		// Record symmetrically so a mobile caller can discover its
		// affinity for a pinned callee.
		if caller := rt.Lookup(from); caller != nil {
			caller.addComm(pr.id, bytes)
		}
	}
}

// Migrate live-migrates the proclet to machine `to`, blocking the
// calling process for the duration. The protocol: reserve destination
// memory, block new invocations, suspend thread compute, drain active
// invocations, pay pinning overhead, copy the heap over the wire,
// commit the move, and resume. Fails without side effects when the
// destination cannot hold the heap.
func (rt *Runtime) Migrate(p *sim.Proc, id ID, to cluster.MachineID) error {
	return rt.MigrateCaused(p, id, to, 0)
}

// MigrateCaused is Migrate with an explicit causal parent span: the
// pressure episode or scheduler decision that triggered the move. The
// migration span becomes a child of that cause, so traces answer "why
// did this proclet move". cause 0 records a root migration span.
func (rt *Runtime) MigrateCaused(p *sim.Proc, id ID, to cluster.MachineID, cause obs.SpanID) error {
	mv, err := rt.freeze(p, id, to, cause, "precopy")
	if mv.pr == nil {
		return err
	}
	pr := mv.pr

	// Pre-copy blackout: kernel-side page pinning and mapping, scaled by
	// heap size, then the heap copy, all frozen.
	pin := migrationFixedOverhead +
		time.Duration(float64(migrationPerMiB)*float64(pr.heapBytes)/(1<<20))
	p.Sleep(pin)
	var cp obs.SpanID
	if rt.obs != nil {
		rt.obs.End(mv.frz)
		cp = rt.obs.Start(obs.KindPhase, "precopy", int(mv.from), mv.sp)
		rt.obs.SetRoute(cp, int(mv.from), int(to))
		rt.obs.SetBytes(cp, pr.heapBytes)
	}
	err = rt.Cluster.Fabric.Transfer(p, simnet.NodeID(mv.from), simnet.NodeID(to), pr.heapBytes)
	if rt.obs != nil {
		rt.obs.SetErr(cp, err)
		rt.obs.End(cp)
	}
	if err := rt.landed(&mv, err); err != nil {
		return err
	}

	d := rt.commit(&mv, false)
	rt.Trace.Emitf(rt.k.Now(), obs.KindMigrate, pr.name, int(mv.from), int(to),
		"bytes=%d latency=%v", pr.heapBytes, d)
	rt.obs.End(mv.sp)
	return nil
}

// move is one migration in flight, from freeze to commit or rollback.
type move struct {
	pr       *Proclet
	from, to cluster.MachineID
	dst      *cluster.Machine
	dstEpoch uint64 // the destination's epoch when its share was reserved
	start    sim.Time
	sp, frz  obs.SpanID // the migrate span and its freeze phase
}

// reserve charges bytes to live machine `to` for a proclet about to land
// there — a migration or a Restore — and returns the machine with the
// epoch the charge was made under.
func (rt *Runtime) reserve(to cluster.MachineID, bytes int64, role string) (*cluster.Machine, uint64, error) {
	dst := rt.Cluster.Machine(to)
	if dst == nil {
		return nil, 0, fmt.Errorf("%w: machine %d", ErrNotFound, to)
	}
	if dst.Down() {
		return nil, 0, fmt.Errorf("%w: %s destination %d", simnet.ErrNodeDown, role, to)
	}
	if err := dst.AllocMem(bytes); err != nil {
		return nil, 0, err
	}
	return dst, dst.Epoch(), nil
}

// freeze is the first step of every migration: check the proclet can
// move, reserve the destination's share, open the migrate span and its
// freeze phase, block new invocations, suspend thread compute and drain
// the invocations in flight. A zero move (nil pr) means there is nothing
// to finish: err says why, or the proclet is already on `to`.
func (rt *Runtime) freeze(p *sim.Proc, id ID, to cluster.MachineID, cause obs.SpanID, mode string) (move, error) {
	pr := rt.Lookup(id)
	if pr == nil {
		return move{}, ErrNotFound
	}
	if pr.state == StateMigrating || pr.lazyWindow {
		return move{}, ErrMigrating
	}
	if pr.machine == to {
		return move{}, nil
	}
	dst, dstEpoch, err := rt.reserve(to, pr.heapBytes, "migration")
	if err != nil {
		return move{}, err
	}
	mv := move{pr: pr, from: pr.machine, to: to, dst: dst, dstEpoch: dstEpoch}
	if rt.obs != nil {
		mv.sp = rt.obs.Start(obs.KindMigrate, pr.name, int(mv.from), cause)
		rt.obs.SetRoute(mv.sp, int(mv.from), int(to))
		rt.obs.SetBytes(mv.sp, pr.heapBytes)
		rt.obs.Str(mv.sp, "mode", mode)
		mv.frz = rt.obs.Start(obs.KindPhase, "freeze", int(mv.from), mv.sp)
	}
	mv.start = rt.k.Now()
	pr.state = StateMigrating
	// Suspend thread compute; remaining work resumes at the destination.
	pr.cancelTasks()
	for pr.active > 0 {
		pr.drained.Wait(p)
	}
	return mv, nil
}

// landed decides, after a migration's blackout, whether the move may
// commit. If the source crashed under it, CrashMachine has orphaned the
// proclet and recovery owns it: the move ends with ErrCrashed. If the
// copy failed (err) or the destination died, the proclet rolls back to
// the source and resumes there. Either way the destination's
// reservation is released unless a crash already wiped it.
func (rt *Runtime) landed(mv *move, err error) error {
	pr := mv.pr
	crashed := pr.state != StateMigrating
	if crashed {
		err = fmt.Errorf("%w: source machine %d failed during migration", ErrCrashed, mv.from)
	} else if err == nil && mv.dst.Down() {
		err = fmt.Errorf("%w: migration destination %d", simnet.ErrNodeDown, mv.to)
	}
	if err == nil {
		return nil
	}
	if mv.dst.Epoch() == mv.dstEpoch {
		mv.dst.FreeMem(pr.heapBytes)
	}
	if !crashed {
		pr.state = StateRunning
		pr.unblocked.Broadcast()
	}
	if rt.obs != nil {
		rt.obs.SetErr(mv.sp, err)
		rt.obs.End(mv.sp)
	}
	return err
}

// commit moves the proclet to the destination and resumes it, returning
// the blackout. A pre-copy commit releases the source's charge; a
// post-copy one (lazy) leaves it for the background copy and opens the
// lazy window.
func (rt *Runtime) commit(mv *move, lazy bool) time.Duration {
	pr := mv.pr
	if !lazy {
		rt.Cluster.Machine(mv.from).FreeMem(pr.heapBytes)
	}
	rt.cache(mv.from, pr.id, mv.to)
	rt.cache(mv.to, pr.id, mv.to)
	pr.machine = mv.to
	pr.allocEpoch = mv.dstEpoch
	pr.state = StateRunning
	pr.lazyWindow = lazy
	pr.unblocked.Broadcast()
	d := rt.k.Now().Sub(mv.start)
	rt.MigrationLatency.Record(int64(d))
	rt.Migrations.Inc()
	return d
}
