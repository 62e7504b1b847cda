package proclet

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Invocation is one method invocation's routing and retry loop as a state
// machine: Begin starts it, Step moves it as far as it goes without
// waiting, and End returns its result. Step returns what to wait on before
// the next step — After a directory lookup, the local dispatch overhead, a
// post-copy penalty or a retry backoff; On a migrating target's unblocked
// Cond; a fabric call's own waits — so the stage of a sim.Proc.Await can
// drive it, as Thread.ComputeStep drives a compute: each step runs in the
// event, and under the sequence number, that would have resumed a process
// sleeping through the wait. A local staged method is stepped the same
// way. Step returns Resume when the invocation is over, or when it has
// reached a local blocking method, which needs a process (NeedsProc): Exec
// runs it on one, and Step carries on. Await is the blocking wrapper, and
// Invoke is Begin and Await.
type Invocation struct {
	rt    *Runtime
	stepF func() sim.Wait // Step, bound once

	from cluster.MachineID // the machine the invocation routes from
	// req is the request envelope. A remote fast handler reads it in place,
	// within the event it lands in; the blocking handler copies it, since
	// the invocation may end — a deadline — and be reused while that
	// handler still runs.
	req invokeReq
	max int // attempt bound
	sp  obs.SpanID

	phase    invPhase
	attempt  int
	retries  int // backoffs so far
	lastErr  error
	loc      cluster.MachineID // where this attempt routes
	pr       *Proclet          // the local target, from the dispatch overhead on
	blocking *methodEntry      // the method Exec runs
	st       Staged            // the local staged method's run
	call     *simnet.Call      // the remote attempt's fabric call
	res      Msg
	err      error
}

// invPhase is where an Invocation's next Step picks up.
type invPhase uint8

const (
	invRoute    invPhase = iota // the top of an attempt
	invLookedUp                 // the directory lookup has been charged
	invLocated                  // the target's machine is known
	invDispatch                 // the local dispatch overhead has been charged
	invServe                    // any post-copy penalty has been charged
	invStaged                   // a local staged method is running
	invExec                     // a local blocking method waits for Exec
	invServed                   // the local method returned res, err
	invCall                     // a fabric call is in flight, or failed to start
	invDone
)

// Begin starts an invocation of method on the target proclet from
// fromMachine, bounded by maxInvokeRetries attempts. from is the calling
// proclet (0 for external clients), for affinity accounting.
func (rt *Runtime) Begin(fromMachine cluster.MachineID, from, target ID, method string, arg Msg) *Invocation {
	return rt.BeginLimited(fromMachine, from, target, method, arg, maxInvokeRetries)
}

// BeginLimited is Begin with an explicit attempt bound overriding
// maxInvokeRetries. Replication shipping uses a small bound so a write
// is not stalled for the full retry budget by one dead backup: the
// shipper drops the backup quickly and re-replication repairs the set.
func (rt *Runtime) BeginLimited(fromMachine cluster.MachineID, from, target ID, method string, arg Msg, maxAttempts int) *Invocation {
	var sp obs.SpanID
	if rt.obs != nil {
		sp = rt.obs.Start(obs.KindInvoke, method, int(fromMachine), rt.obs.TakeNext())
		rt.obs.SetBytes(sp, arg.Bytes)
	}
	var inv *Invocation
	if n := len(rt.invPool); n > 0 {
		inv = rt.invPool[n-1]
		rt.invPool[n-1] = nil
		rt.invPool = rt.invPool[:n-1]
	} else {
		inv = &Invocation{rt: rt}
		inv.stepF = inv.Step
	}
	inv.from, inv.max, inv.sp = fromMachine, max(maxAttempts, 1), sp
	inv.req = invokeReq{From: from, Target: target, Method: method, Arg: arg}
	return inv
}

// Step advances the invocation as far as it goes without waiting and
// returns the wait before the next step, or Resume once the invocation is
// over or NeedsProc.
func (inv *Invocation) Step() sim.Wait {
	rt := inv.rt
	for {
		switch inv.phase {
		case invRoute:
			if inv.attempt >= inv.max {
				if inv.lastErr != nil {
					return inv.finish(Msg{}, fmt.Errorf("%w: target %d method %q (last: %w)",
						ErrRetries, inv.req.Target, inv.req.Method, inv.lastErr))
				}
				return inv.finish(Msg{}, fmt.Errorf("%w: target %d method %q", ErrRetries, inv.req.Target, inv.req.Method))
			}
			loc, ok := rt.cached(inv.from, inv.req.Target)
			if !ok {
				rt.DirectoryLookups.Inc()
				inv.phase = invLookedUp
				return sim.After(directoryLookup)
			}
			inv.loc, inv.phase = loc, invLocated
		case invLookedUp:
			pr := rt.listed(inv.req.Target)
			if pr == nil {
				return inv.finish(Msg{}, fmt.Errorf("%w: id %d", ErrNotFound, inv.req.Target))
			}
			rt.cache(inv.from, inv.req.Target, pr.machine)
			inv.loc, inv.phase = pr.machine, invLocated
		case invLocated:
			if inv.loc != inv.from {
				if rt.obs != nil {
					rt.obs.SetNext(inv.sp) // consumed synchronously by StartCall
				}
				inv.call, inv.err = rt.Cluster.Fabric.StartCall(
					simnet.NodeID(inv.from), simnet.NodeID(inv.loc),
					"proclet.invoke", simnet.Message{Payload: &inv.req, Bytes: inv.req.Arg.Bytes}, 0)
				inv.phase = invCall
				continue
			}
			pr := rt.localOn(inv.loc, inv.req.Target)
			if pr == nil {
				rt.uncache(inv.from, inv.req.Target)
				inv.next()
				continue
			}
			if pr.state == StateMigrating {
				inv.next()
				return sim.On(&pr.unblocked)
			}
			inv.pr, inv.phase = pr, invDispatch
			return sim.After(localInvokeOverhead)
		case invDispatch:
			rt.LocalInvokes.Inc()
			inv.phase = invServe
			if d := rt.lazyPenalty(inv.pr); d > 0 {
				return sim.After(d)
			}
		case invServe:
			res, e, err := rt.serveInline(inv.pr, inv.req.From, inv.req.Method, inv.req.Arg)
			switch {
			case e == nil:
				inv.res, inv.err, inv.phase = res, err, invServed
			case e.staged != nil:
				inv.st, inv.phase = rt.startStaged(inv.pr, e, inv.req.Arg), invStaged
			default:
				inv.blocking, inv.phase = e, invExec
				return sim.Resume
			}
		case invStaged:
			if w := inv.st.Step(); w != sim.Resume {
				return w
			}
			inv.res, inv.err = rt.endStaged(inv.pr, inv.st, inv.req.From, inv.req.Arg)
			inv.st, inv.phase = nil, invServed
		case invServed:
			if errors.Is(inv.err, ErrUnavailable) {
				// A lease-lapsed or deposed primary refused to serve; back
				// off and re-route (the proclet may be promoted onto another
				// machine meanwhile).
				return inv.backoff(inv.err)
			}
			return inv.finish(inv.res, inv.err)
		case invCall:
			if inv.call != nil {
				if w := inv.call.Stage(); w != sim.Resume {
					return w
				}
				inv.res, inv.err = inv.call.End()
				inv.call = nil
			}
			switch err := inv.err; {
			case err == nil:
				rt.RemoteInvokes.Inc()
				return inv.finish(inv.res, nil)
			case errors.Is(err, ErrMoved):
				rt.uncache(inv.from, inv.req.Target)
				inv.next()
			case !retryable(err):
				return inv.finish(Msg{}, err)
			default:
				// The target's machine is down, or the message was lost: the
				// cached location may be stale (recovery re-places orphans).
				if errors.Is(err, simnet.ErrTimeout) {
					rt.InvokeTimeouts.Inc()
				}
				return inv.backoff(err)
			}
		default: // invExec, invDone
			return sim.Resume
		}
	}
}

// NeedsProc reports whether the invocation waits for Exec.
func (inv *Invocation) NeedsProc() bool { return inv.phase == invExec }

// Exec runs the local blocking method the invocation reached on p, the
// process that stands for the caller. The next Step settles its result.
func (inv *Invocation) Exec(p *sim.Proc) {
	inv.res, inv.err = inv.rt.serveBlocking(p, inv.pr, inv.blocking, inv.req.From, inv.req.Arg)
	inv.blocking, inv.phase = nil, invServed
}

// End returns the result of an invocation that is over and recycles it:
// inv must not be used again.
func (inv *Invocation) End() (Msg, error) {
	rt := inv.rt
	res, err, sp := inv.res, inv.err, inv.sp
	*inv = Invocation{rt: rt, stepF: inv.stepF}
	rt.invPool = append(rt.invPool, inv)
	if rt.obs != nil {
		rt.obs.SetErr(sp, err)
		rt.obs.End(sp)
	}
	return res, err
}

// backoff drops the cached location after a failed attempt and retries
// once the capped, jittered delay for this retry has passed.
func (inv *Invocation) backoff(err error) sim.Wait {
	rt := inv.rt
	inv.lastErr = err
	rt.uncache(inv.from, inv.req.Target)
	rt.InvokeRetries.Inc()
	d := rt.backoffDelay(inv.retries)
	inv.retries++
	inv.next()
	return sim.After(d)
}

// next moves on to the next attempt.
func (inv *Invocation) next() { inv.attempt, inv.phase = inv.attempt+1, invRoute }

func (inv *Invocation) finish(res Msg, err error) sim.Wait {
	inv.res, inv.err, inv.phase = res, err, invDone
	return sim.Resume
}

// Await runs inv to its end with p standing for the caller: one Await of
// p's through the steps, and Exec on p for a local blocking method. It
// ends inv and returns its result.
func (inv *Invocation) Await(p *sim.Proc) (Msg, error) {
	w := inv.Step()
	for {
		p.Await(w, inv.stepF)
		if !inv.NeedsProc() {
			return inv.End()
		}
		inv.Exec(p)
		w = inv.Step()
	}
}
