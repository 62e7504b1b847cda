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

// Config tunes the runtime's cost model.
type Config struct {
	// MigrationFixedOverhead is the control-plane cost charged once per
	// migration: pausing, page-table setup, directory update.
	MigrationFixedOverhead time.Duration
	// MigrationPerMiB is the kernel-side page pinning/mapping cost per
	// MiB of migrated heap (the paper's §5 notes this as today's
	// kernel bottleneck).
	MigrationPerMiB time.Duration
	// DirectoryLookup is the cost of consulting the directory service
	// on a location-cache miss.
	DirectoryLookup time.Duration
	// LocalInvokeOverhead is the dispatch cost of a same-machine
	// method invocation (a function call).
	LocalInvokeOverhead time.Duration
	// MaxInvokeRetries bounds routing retries while chasing a moving
	// proclet.
	MaxInvokeRetries int
	// LazyRemotePenalty is the per-invocation cost of touching
	// not-yet-copied state through coherent remote memory during a
	// post-copy (CXL-style) migration window (§5: "postponing the
	// copying of data").
	LazyRemotePenalty time.Duration

	// InvokeTimeout bounds each remote invocation attempt. Zero defers
	// to the fabric's default deadline (simnet.Config.CallTimeout);
	// if that is also zero, attempts have no deadline.
	InvokeTimeout time.Duration
	// RetryBackoffBase is the delay before the first retry after a
	// retryable failure (ErrNodeDown, ErrTimeout); it doubles per
	// attempt. Routing chases (ErrMoved) never back off.
	RetryBackoffBase time.Duration
	// RetryBackoffMax caps the exponential backoff.
	RetryBackoffMax time.Duration
	// RetryJitter is the fraction of each backoff randomized (0..1),
	// drawn from the kernel RNG so schedules stay deterministic per
	// seed. A delay d becomes uniform in [d*(1-j/2), d*(1+j/2)].
	RetryJitter float64
}

// DefaultConfig matches Nu's reported costs: sub-millisecond migration
// for small proclets (fixed ~50 us + pinning ~30 us/MiB on top of wire
// time) and ~100 ns local dispatch.
func DefaultConfig() Config {
	return Config{
		MigrationFixedOverhead: 50 * time.Microsecond,
		MigrationPerMiB:        30 * time.Microsecond,
		DirectoryLookup:        5 * time.Microsecond,
		LocalInvokeOverhead:    100 * time.Nanosecond,
		MaxInvokeRetries:       16,
		LazyRemotePenalty:      4 * time.Microsecond,
		RetryBackoffBase:       100 * time.Microsecond,
		RetryBackoffMax:        2 * time.Millisecond,
		RetryJitter:            0.5,
	}
}

// Runtime is the distributed proclet runtime spanning every machine in
// the cluster (Nu's "distributed runtime" that avoids cold starts).
type Runtime struct {
	Cluster *cluster.Cluster
	Trace   *obs.Log

	cfg Config
	k   *sim.Kernel

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
	// invocations block) in seconds, for both pre- and post-copy
	// migrations. LazyResidence records post-copy start-to-resident
	// times.
	MigrationLatency *metrics.Histogram
	LazyResidence    *metrics.Histogram
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

	// reqPool recycles invokeReq wire structs so steady-state remote
	// invocations allocate nothing for the request envelope; ctxPool
	// does the same for method Ctxs (a stack, so invocations that
	// nest — a method calling another local proclet — each get their
	// own Ctx).
	reqPool []*invokeReq
	ctxPool []*Ctx

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

// NewRuntime creates a runtime over an already-populated cluster (all
// machines must be added before calling). tl may be nil to disable
// tracing.
func NewRuntime(c *cluster.Cluster, cfg Config, tl *obs.Log) *Runtime {
	if cfg.MaxInvokeRetries <= 0 {
		cfg.MaxInvokeRetries = 16
	}
	if cfg.RetryBackoffBase <= 0 {
		cfg.RetryBackoffBase = 100 * time.Microsecond
	}
	if cfg.RetryBackoffMax < cfg.RetryBackoffBase {
		cfg.RetryBackoffMax = 2 * time.Millisecond
	}
	if cfg.RetryJitter < 0 {
		cfg.RetryJitter = 0
	} else if cfg.RetryJitter > 1 {
		cfg.RetryJitter = 1
	}
	rt := &Runtime{
		Cluster:          c,
		Trace:            tl,
		cfg:              cfg,
		k:                c.K,
		procs:            make([]*Proclet, 1), // id 0 is "no proclet"
		caches:           make([][]int32, len(c.Machines())),
		MigrationLatency: metrics.NewHistogram("proclet.migration_latency"),
		LazyResidence:    metrics.NewHistogram("proclet.lazy_residence"),
	}
	for _, m := range c.Machines() {
		mid := m.ID
		n := c.Node(mid)
		n.Handle("proclet.invoke", func(hp *sim.Proc, req simnet.Message) (simnet.Message, error) {
			r := req.Payload.(*invokeReq)
			return rt.execOn(hp, mid, r)
		})
		// Fast methods are served inline at request delivery; anything
		// that would need to block falls back to the handler above.
		n.HandleFast("proclet.invoke", func(req simnet.Message) (simnet.Message, error) {
			return rt.execFastOn(mid, req.Payload.(*invokeReq))
		})
	}
	return rt
}

// Config returns the runtime's cost-model configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Kernel returns the simulation kernel.
func (rt *Runtime) Kernel() *sim.Kernel { return rt.k }

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
		commBytes:  make(map[ID]int64),
	}
	rt.procs = append(rt.procs, pr)
	rt.Trace.Emitf(rt.k.Now(), obs.KindSpawn, name, -1, int(m), "heap=%d id=%d", heapBytes, pr.id)
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
	rt.Trace.Emitf(rt.k.Now(), obs.KindDestroy, pr.name, int(m), -1, "id=%d", id)
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

// locate returns the target's location as seen from machine m, charging
// a directory lookup on cache miss.
func (rt *Runtime) locate(p *sim.Proc, m cluster.MachineID, target ID) (cluster.MachineID, error) {
	if c := rt.caches[m]; uint64(target) < uint64(len(c)) && c[target] != 0 {
		return cluster.MachineID(c[target] - 1), nil
	}
	rt.DirectoryLookups.Inc()
	p.Sleep(rt.cfg.DirectoryLookup)
	pr := rt.listed(target)
	if pr == nil {
		return 0, fmt.Errorf("%w: id %d", ErrNotFound, target)
	}
	rt.cache(m, target, pr.machine)
	return pr.machine, nil
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
// arrives, chasing stale location caches as needed.
func (rt *Runtime) Invoke(p *sim.Proc, fromMachine cluster.MachineID, from ID, target ID, method string, arg Msg) (Msg, error) {
	var sp obs.SpanID
	if rt.obs != nil {
		sp = rt.obs.Start(obs.KindInvoke, method, int(fromMachine), rt.obs.TakeNext())
		rt.obs.SetBytes(sp, arg.Bytes)
	}
	req := rt.getReq()
	req.From, req.Target, req.Method, req.Arg = from, target, method, arg
	res, err := rt.invoke(p, fromMachine, req, rt.cfg.MaxInvokeRetries, sp)
	rt.putReq(req)
	if rt.obs != nil {
		rt.obs.SetErr(sp, err)
		rt.obs.End(sp)
	}
	return res, err
}

// InvokeLimited is Invoke with an explicit attempt bound overriding
// MaxInvokeRetries. Replication shipping uses a small bound so a write
// is not stalled for the full retry budget by one dead backup: the
// shipper drops the backup quickly and re-replication repairs the set.
func (rt *Runtime) InvokeLimited(p *sim.Proc, fromMachine cluster.MachineID, from ID, target ID, method string, arg Msg, maxAttempts int) (Msg, error) {
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	var sp obs.SpanID
	if rt.obs != nil {
		sp = rt.obs.Start(obs.KindInvoke, method, int(fromMachine), rt.obs.TakeNext())
		rt.obs.SetBytes(sp, arg.Bytes)
	}
	req := rt.getReq()
	req.From, req.Target, req.Method, req.Arg = from, target, method, arg
	res, err := rt.invoke(p, fromMachine, req, maxAttempts, sp)
	rt.putReq(req)
	if rt.obs != nil {
		rt.obs.SetErr(sp, err)
		rt.obs.End(sp)
	}
	return res, err
}

// getReq pops a pooled request envelope; putReq returns it. The
// envelope is only referenced synchronously while the invocation is in
// flight (the caller blocks for the round trip), so releasing it when
// invoke returns is safe.
func (rt *Runtime) getReq() *invokeReq {
	if n := len(rt.reqPool); n > 0 {
		r := rt.reqPool[n-1]
		rt.reqPool[n-1] = nil
		rt.reqPool = rt.reqPool[:n-1]
		return r
	}
	return &invokeReq{}
}

func (rt *Runtime) putReq(r *invokeReq) {
	*r = invokeReq{} // drop the payload reference
	rt.reqPool = append(rt.reqPool, r)
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
	d := rt.cfg.RetryBackoffBase
	if retry >= 30 {
		d = rt.cfg.RetryBackoffMax
	} else {
		d <<= uint(retry)
		if d > rt.cfg.RetryBackoffMax || d <= 0 {
			d = rt.cfg.RetryBackoffMax
		}
	}
	if j := rt.cfg.RetryJitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j/2 + j*rt.k.Rand().Float64()))
	}
	return d
}

// retryable reports whether an invocation error is worth retrying after
// a backoff: the node may restart, the partition may heal, recovery
// may re-place the target elsewhere, or a lapsed lease may be renewed
// (or its holder deposed and a replica promoted).
func retryable(err error) bool {
	return errors.Is(err, simnet.ErrNodeDown) || errors.Is(err, simnet.ErrTimeout) ||
		errors.Is(err, ErrUnavailable)
}

func (rt *Runtime) invoke(p *sim.Proc, fromMachine cluster.MachineID, req *invokeReq, maxAttempts int, sp obs.SpanID) (Msg, error) {
	var lastErr error
	retries := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		loc, err := rt.locate(p, fromMachine, req.Target)
		if err != nil {
			return Msg{}, err
		}
		if loc == fromMachine {
			pr := rt.localOn(loc, req.Target)
			if pr == nil {
				rt.uncache(fromMachine, req.Target)
				continue
			}
			if pr.state == StateMigrating {
				pr.unblocked.Wait(p)
				continue
			}
			p.Sleep(rt.cfg.LocalInvokeOverhead)
			rt.LocalInvokes.Inc()
			res, err := rt.exec(p, pr, req.From, req.Method, req.Arg)
			if errors.Is(err, ErrUnavailable) {
				// A lease-lapsed or deposed primary refused to serve;
				// back off and re-route (the proclet may be promoted
				// onto another machine meanwhile).
				lastErr = err
				rt.uncache(fromMachine, req.Target)
				rt.InvokeRetries.Inc()
				p.Sleep(rt.backoffDelay(retries))
				retries++
				continue
			}
			return res, err
		}
		if rt.obs != nil {
			rt.obs.SetNext(sp) // consumed synchronously at CallWithTimeout entry
		}
		reply, err := rt.Cluster.Fabric.CallWithTimeout(p,
			simnet.NodeID(fromMachine), simnet.NodeID(loc),
			"proclet.invoke", simnet.Message{Payload: req, Bytes: req.Arg.Bytes},
			rt.cfg.InvokeTimeout)
		if errors.Is(err, ErrMoved) {
			rt.uncache(fromMachine, req.Target)
			continue
		}
		if err != nil {
			if !retryable(err) {
				return Msg{}, err
			}
			// The target's machine is down, or the message was lost: the
			// cached location may be stale (recovery re-places orphans),
			// so drop it and retry after a capped, jittered backoff.
			if errors.Is(err, simnet.ErrTimeout) {
				rt.InvokeTimeouts.Inc()
			}
			lastErr = err
			rt.uncache(fromMachine, req.Target)
			rt.InvokeRetries.Inc()
			p.Sleep(rt.backoffDelay(retries))
			retries++
			continue
		}
		rt.RemoteInvokes.Inc()
		return reply, nil
	}
	if lastErr != nil {
		return Msg{}, fmt.Errorf("%w: target %d method %q (last: %w)",
			ErrRetries, req.Target, req.Method, lastErr)
	}
	return Msg{}, fmt.Errorf("%w: target %d method %q", ErrRetries, req.Target, req.Method)
}

// execOn runs an invocation that arrived at machine m, waiting out any
// in-progress migration and reporting ErrMoved when the proclet is no
// longer (or never was) here.
func (rt *Runtime) execOn(p *sim.Proc, m cluster.MachineID, r *invokeReq) (Msg, error) {
	for {
		pr := rt.localOn(m, r.Target)
		if pr == nil {
			return Msg{}, ErrMoved
		}
		if pr.state == StateMigrating {
			pr.unblocked.Wait(p)
			continue
		}
		return rt.exec(p, pr, r.From, r.Method, r.Arg)
	}
}

// execFastOn serves a remote invocation inline in kernel context at the
// instant the request lands. It declines with simnet.ErrWouldBlock
// whenever serving would need a simulated process: the proclet is
// migrating (the handler must wait it out), it is in a post-copy lazy
// window (the remote-access penalty is a sleep), or the method is a
// blocking one.
func (rt *Runtime) execFastOn(m cluster.MachineID, r *invokeReq) (Msg, error) {
	pr := rt.localOn(m, r.Target)
	if pr == nil {
		return Msg{}, ErrMoved
	}
	if pr.state == StateMigrating || (pr.lazyWindow && rt.cfg.LazyRemotePenalty > 0) {
		return Msg{}, simnet.ErrWouldBlock
	}
	e := pr.method(r.Method)
	if e == nil {
		return Msg{}, fmt.Errorf("%w: %q on %s", ErrNoMethod, r.Method, pr.name)
	}
	if e.fast == nil {
		return Msg{}, simnet.ErrWouldBlock
	}
	res, err := e.fast(r.Arg)
	if errors.Is(err, simnet.ErrWouldBlock) {
		// The fast registration declined this particular invocation
		// (e.g. a write that must ship replication records); it will be
		// re-dispatched to the blocking fallback, which does its own
		// counting and accounting.
		return Msg{}, simnet.ErrWouldBlock
	}
	rt.FastInvokes.Inc()
	rt.account(pr, r.From, r.Arg, res)
	return res, err
}

// exec dispatches the method on a proclet known to be local and
// running, tracking the active-invocation count for migration drains
// and affinity bytes for the scheduler. Fast methods skip the Ctx and
// the active count: they execute atomically within the current event,
// so a migration drain can never observe one in flight.
func (rt *Runtime) exec(p *sim.Proc, pr *Proclet, from ID, method string, arg Msg) (Msg, error) {
	rt.lazyPenalty(p, pr)
	e := pr.method(method)
	if e != nil && e.fast != nil {
		res, err := e.fast(arg)
		if !errors.Is(err, simnet.ErrWouldBlock) {
			rt.FastInvokes.Inc()
			rt.account(pr, from, arg, res)
			return res, err
		}
		// Declined: fall through to the blocking fallback registration.
	}
	if e == nil || e.blocking == nil {
		return Msg{}, fmt.Errorf("%w: %q on %s", ErrNoMethod, method, pr.name)
	}
	pr.active++
	ctx := rt.getCtx()
	ctx.Proc, ctx.Self, ctx.From = p, pr, from
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
		pr.commBytes[from] += bytes
		// Record symmetrically so a mobile caller can discover its
		// affinity for a pinned callee.
		if caller := rt.Lookup(from); caller != nil {
			caller.commBytes[pr.id] += bytes
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
	pr := rt.Lookup(id)
	if pr == nil {
		return ErrNotFound
	}
	if pr.state == StateMigrating || pr.lazyWindow {
		return ErrMigrating
	}
	if pr.state == StateOrphaned {
		return ErrCrashed
	}
	from := pr.machine
	if from == to {
		return nil
	}
	dst := rt.Cluster.Machine(to)
	if dst == nil {
		return fmt.Errorf("%w: machine %d", ErrNotFound, to)
	}
	if dst.Down() {
		return fmt.Errorf("%w: migration destination %d", simnet.ErrNodeDown, to)
	}
	if err := dst.AllocMem(pr.heapBytes); err != nil {
		return err
	}
	dstEpoch := dst.Epoch()

	var sp, frz obs.SpanID
	if rt.obs != nil {
		sp = rt.obs.Start(obs.KindMigrate, pr.name, int(from), cause)
		rt.obs.SetRoute(sp, int(from), int(to))
		rt.obs.SetBytes(sp, pr.heapBytes)
		rt.obs.Str(sp, "mode", "precopy")
		// Pre-copy blackout: drain, pin, and copy all happen frozen.
		frz = rt.obs.Start(obs.KindPhase, "freeze", int(from), sp)
	}

	start := rt.k.Now()
	pr.state = StateMigrating

	// Suspend thread compute; remaining work resumes at the destination.
	pr.cancelTasks()

	// Drain in-flight method invocations.
	for pr.active > 0 {
		pr.drained.Wait(p)
	}

	// Kernel-side pause: page pinning and mapping, scaled by heap size.
	pin := rt.cfg.MigrationFixedOverhead +
		time.Duration(float64(rt.cfg.MigrationPerMiB)*float64(pr.heapBytes)/(1<<20))
	p.Sleep(pin)

	var cp obs.SpanID
	if rt.obs != nil {
		rt.obs.End(frz)
		cp = rt.obs.Start(obs.KindPhase, "precopy", int(from), sp)
		rt.obs.SetRoute(cp, int(from), int(to))
		rt.obs.SetBytes(cp, pr.heapBytes)
	}

	// Copy the heap.
	err := rt.Cluster.Fabric.Transfer(p, simnet.NodeID(from), simnet.NodeID(to), pr.heapBytes)
	if rt.obs != nil {
		rt.obs.SetErr(cp, err)
		rt.obs.End(cp)
	}
	if pr.state != StateMigrating {
		// The source crashed mid-copy and CrashMachine orphaned the
		// proclet underneath us: the half-copied destination image is
		// abandoned. Recovery owns the proclet now.
		if dst.Epoch() == dstEpoch {
			dst.FreeMem(pr.heapBytes)
		}
		cerr := fmt.Errorf("%w: source machine %d failed during migration", ErrCrashed, from)
		if rt.obs != nil {
			rt.obs.SetErr(sp, cerr)
			rt.obs.End(sp)
		}
		return cerr
	}
	if err == nil && dst.Down() {
		// The copy "landed" on a machine that died before commit.
		err = fmt.Errorf("%w: migration destination %d", simnet.ErrNodeDown, to)
	}
	if err != nil {
		// Roll back: the proclet stays where it was. The destination's
		// reservation is released only if the destination has not
		// crashed since (a crash already wiped it).
		if dst.Epoch() == dstEpoch {
			dst.FreeMem(pr.heapBytes)
		}
		pr.state = StateRunning
		pr.unblocked.Broadcast()
		if rt.obs != nil {
			rt.obs.SetErr(sp, err)
			rt.obs.End(sp)
		}
		return err
	}

	// Commit.
	rt.Cluster.Machine(from).FreeMem(pr.heapBytes)
	rt.cache(from, id, to)
	rt.cache(to, id, to)
	pr.machine = to
	pr.allocEpoch = dstEpoch
	pr.state = StateRunning
	pr.unblocked.Broadcast()

	d := rt.k.Now().Sub(start)
	rt.MigrationLatency.ObserveDuration(d)
	rt.Migrations.Inc()
	rt.Trace.Emitf(rt.k.Now(), obs.KindMigrate, pr.name, int(from), int(to),
		"bytes=%d latency=%v", pr.heapBytes, d)
	rt.obs.End(sp)
	return nil
}
