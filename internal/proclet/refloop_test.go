package proclet

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The routing and retry loop as it was written before Invocation: every
// wait a Sleep, a Cond.Wait or a blocking fabric call on the caller's own
// process. TestInvocationMatchesReferenceLoop holds Invoke to it, event
// for event.

// refInvoke is Invoke (limit 0) and BeginLimited (limit > 0) over refLoop.
func refInvoke(rt *Runtime, p *sim.Proc, fromMachine cluster.MachineID, from, target ID, method string, arg Msg, limit int) (Msg, error) {
	maxAttempts := maxInvokeRetries
	if limit > 0 {
		maxAttempts = limit
	}
	var sp obs.SpanID
	if rt.obs != nil {
		sp = rt.obs.Start(obs.KindInvoke, method, int(fromMachine), rt.obs.TakeNext())
		rt.obs.SetBytes(sp, arg.Bytes)
	}
	req := &invokeReq{From: from, Target: target, Method: method, Arg: arg}
	res, err := refLoop(rt, p, fromMachine, req, maxAttempts, sp)
	if rt.obs != nil {
		rt.obs.SetErr(sp, err)
		rt.obs.End(sp)
	}
	return res, err
}

// refLocate returns the target's location as seen from machine m, charging
// a directory lookup on cache miss.
func refLocate(rt *Runtime, p *sim.Proc, m cluster.MachineID, target ID) (cluster.MachineID, error) {
	if loc, ok := rt.cached(m, target); ok {
		return loc, nil
	}
	rt.DirectoryLookups.Inc()
	p.Sleep(directoryLookup)
	pr := rt.listed(target)
	if pr == nil {
		return 0, fmt.Errorf("%w: id %d", ErrNotFound, target)
	}
	rt.cache(m, target, pr.machine)
	return pr.machine, nil
}

func refLoop(rt *Runtime, p *sim.Proc, fromMachine cluster.MachineID, req *invokeReq, maxAttempts int, sp obs.SpanID) (Msg, error) {
	var lastErr error
	retries := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		loc, err := refLocate(rt, p, fromMachine, req.Target)
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
			p.Sleep(localInvokeOverhead)
			rt.LocalInvokes.Inc()
			res, err := refExec(rt, p, pr, req.From, req.Method, req.Arg)
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
			rt.obs.SetNext(sp) // consumed synchronously by StartCall
		}
		reply, err := refCall(p, rt.Cluster.Fabric, simnet.NodeID(fromMachine), simnet.NodeID(loc),
			simnet.Message{Payload: req, Bytes: req.Arg.Bytes})
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

// refCall is a blocking fabric call with a deadline, as the loop made it.
func refCall(p *sim.Proc, f *simnet.Fabric, from, to simnet.NodeID, req simnet.Message) (simnet.Message, error) {
	cs, err := f.StartCall(from, to, "proclet.invoke", req, 0)
	if err != nil {
		return simnet.Message{}, err
	}
	p.Await(cs.Stage(), cs.Stage)
	return cs.End()
}

// refExec is local dispatch on p, as the loop did it: the post-copy
// penalty, then the method inline, on p, or — staged — its run stepped by
// an Await of p's.
func refExec(rt *Runtime, p *sim.Proc, pr *Proclet, from ID, method string, arg Msg) (Msg, error) {
	if d := rt.lazyPenalty(pr); d > 0 {
		p.Sleep(d)
	}
	res, e, err := rt.serveInline(pr, from, method, arg)
	switch {
	case e == nil:
		return res, err
	case e.staged == nil:
		return rt.serveBlocking(p, pr, e, from, arg)
	}
	st := rt.startStaged(pr, e, arg)
	p.Await(st.Step(), st.Step)
	return rt.endStaged(pr, st, from, arg)
}
