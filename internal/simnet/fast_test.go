package simnet

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestHandleFastRoundTrip: a fast handler serves an RPC inline with the
// same wire costs and reply semantics as a blocking handler.
func TestHandleFastRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	srv.HandleFast("echo", func(req Message) (Message, error) {
		return Message{Payload: req.Payload, Bytes: req.Bytes}, nil
	})
	var reply Message
	var done sim.Time
	k.Spawn("client", func(p *sim.Proc) {
		var err error
		reply, err = f.Call(p, 1, 2, "echo", Message{Payload: "hi", Bytes: 500_000})
		if err != nil {
			t.Errorf("Call: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	if reply.Payload != "hi" {
		t.Errorf("reply = %v, want hi", reply.Payload)
	}
	// Same timing as the blocking echo in TestCallRoundTrip: 0.5 ms each
	// way + 2x10us latency. Inline dispatch removes host overhead, not
	// simulated time.
	want := sim.Time(time.Millisecond + 20*time.Microsecond)
	if done != want {
		t.Errorf("round trip = %v, want %v", done, want)
	}
	if f.Calls.Value() != 1 {
		t.Errorf("Calls = %d, want 1", f.Calls.Value())
	}
	if f.FastCalls.Value() != 1 {
		t.Errorf("FastCalls = %d, want 1", f.FastCalls.Value())
	}
}

// TestHandleFastWouldBlockFallsBack: a fast handler returning
// ErrWouldBlock routes that request to the blocking handler.
func TestHandleFastWouldBlockFallsBack(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := testConfig()
	cfg.Latency = 0
	f := New(k, cfg)
	f.AddNode(1)
	srv := f.AddNode(2)
	fastTried := 0
	srv.HandleFast("op", func(req Message) (Message, error) {
		fastTried++
		if req.Payload == "fast" {
			return Message{Payload: "from-fast"}, nil
		}
		return Message{}, ErrWouldBlock
	})
	srv.Handle("op", func(p *sim.Proc, req Message) (Message, error) {
		p.Sleep(5 * time.Millisecond)
		return Message{Payload: "from-slow"}, nil
	})
	k.Spawn("client", func(p *sim.Proc) {
		reply, err := f.Call(p, 1, 2, "op", Message{Payload: "fast"})
		if err != nil || reply.Payload != "from-fast" {
			t.Errorf("fast request: reply=%v err=%v", reply.Payload, err)
		}
		start := p.Now()
		reply, err = f.Call(p, 1, 2, "op", Message{Payload: "slow"})
		if err != nil || reply.Payload != "from-slow" {
			t.Errorf("slow request: reply=%v err=%v", reply.Payload, err)
		}
		if elapsed := p.Now().Sub(start); elapsed < 5*time.Millisecond {
			t.Errorf("slow request took %v, want >= 5ms (blocking handler)", elapsed)
		}
	})
	k.Run()
	if fastTried != 2 {
		t.Errorf("fast handler tried %d times, want 2", fastTried)
	}
	if f.Calls.Value() != 2 || f.FastCalls.Value() != 1 {
		t.Errorf("Calls = %d FastCalls = %d, want 2 and 1", f.Calls.Value(), f.FastCalls.Value())
	}
}

// TestHandleFastWouldBlockNoFallback: declining with no blocking
// handler registered is an ErrNoHandler, not a hang.
func TestHandleFastWouldBlockNoFallback(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	srv.HandleFast("op", func(req Message) (Message, error) {
		return Message{}, ErrWouldBlock
	})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 2, "op", Message{}); !errors.Is(err, ErrNoHandler) {
			t.Errorf("err = %v, want ErrNoHandler", err)
		}
	})
	k.Run()
}

// TestHandleFastErrorPropagates: a fast handler's error reaches the
// caller like a blocking handler's would.
func TestHandleFastErrorPropagates(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	errBoom := errors.New("boom")
	srv.HandleFast("fail", func(req Message) (Message, error) {
		return Message{}, errBoom
	})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 2, "fail", Message{}); !errors.Is(err, errBoom) {
			t.Errorf("err = %v, want boom", err)
		}
	})
	k.Run()
	if f.FastCalls.Value() != 0 {
		t.Errorf("FastCalls = %d for an error reply, want 0", f.FastCalls.Value())
	}
}

// TestHandleFastBlockingPanics: a fast handler that attempts to block
// must panic with a clear message rather than deadlock the kernel.
func TestHandleFastBlockingPanics(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	var client *sim.Proc
	srv.HandleFast("bad", func(req Message) (Message, error) {
		// Misuse: fast handlers run in kernel context and own no
		// process; any park attempt must be caught.
		client.Sleep(time.Millisecond)
		return Message{}, nil
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from blocking fast handler")
		}
		if !strings.Contains(r.(string), "must not block") {
			t.Fatalf("unexpected panic message: %v", r)
		}
	}()
	client = k.Spawn("client", func(p *sim.Proc) {
		f.Call(p, 1, 2, "bad", Message{})
	})
	k.Run()
}

// TestCallStateReuse: the pooled per-call state must actually be reused
// across sequential calls (one allocation's worth of state, many calls).
func TestCallStateReuse(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	srv.HandleFast("echo", func(req Message) (Message, error) { return req, nil })
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if _, err := f.Call(p, 1, 2, "echo", Message{Bytes: 100}); err != nil {
				t.Errorf("Call %d: %v", i, err)
				return
			}
		}
	})
	k.Run()
	if len(f.callPool) != 1 {
		t.Errorf("callPool holds %d states after 50 sequential calls, want 1", len(f.callPool))
	}
	if f.Calls.Value() != 50 {
		t.Errorf("Calls = %d, want 50", f.Calls.Value())
	}
}

// TestSteadyStateCallAllocatesNothing: once the pools are warm, a fast
// cross-node Call — the caller's single park, the send stage, delivery,
// reply and resume — allocates nothing, with or without a deadline.
func TestSteadyStateCallAllocatesNothing(t *testing.T) {
	for _, timeout := range []time.Duration{0, 2 * time.Millisecond} {
		k := sim.NewKernel(1)
		cfg := testConfig()
		cfg.CallTimeout = timeout
		f := New(k, cfg)
		f.AddNode(1)
		f.AddNode(2).HandleFast("echo", func(req Message) (Message, error) { return req, nil })
		k.Spawn("client", func(p *sim.Proc) {
			for {
				if _, err := f.Call(p, 1, 2, "echo", Message{Bytes: 100}); err != nil {
					panic(err)
				}
			}
		})
		k.RunUntil(10 * sim.Millisecond) // pools warm, queues at capacity
		if a := testing.AllocsPerRun(1000, func() { k.Step() }); a != 0 {
			t.Errorf("CallTimeout %v: a steady-state Call step allocates %v objects, want 0", timeout, a)
		}
		k.Close()
	}
}

// TestFreshCallRecordsAllocateLittle: on a fresh fabric every call takes
// a record the pool never held, and a record costs the Call itself plus
// its share of the fabric's growing tables — at most 2 allocations a
// record over start, send, delivery, reply and End. The closures only a
// blocking or staged handler or Fabric.Call's wait needs are bound on
// first use, and the three event callbacks once per fabric; binding all
// six per record cost 7 allocations a record.
func TestFreshCallRecordsAllocateLittle(t *testing.T) {
	const calls = 512
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := testConfig()
	cfg.CallTimeout = time.Millisecond
	f := New(k, cfg)
	f.AddNode(1)
	f.AddNode(2).HandleFast("echo", func(req Message) (Message, error) { return req, nil })
	records := make([]*Call, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range records {
		cs, err := f.StartCall(1, 2, "echo", Message{Bytes: 100}, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs.Stage() // the caller-side overhead
		cs.Stage() // the send
		records[i] = cs
	}
	k.Run()
	for _, cs := range records {
		if _, err := cs.End(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if len(f.callPool) != calls || f.FastCalls.Value() != calls {
		t.Fatalf("%d records pooled and %d fast calls served, want %d of each", len(f.callPool), f.FastCalls.Value(), calls)
	}
	if per := float64(after.Mallocs-before.Mallocs) / calls; per > 2 {
		t.Errorf("%d calls on a fresh fabric allocated %.2f objects a record, want at most 2", calls, per)
	}
}

// TestMethodTableInlineAndSpill: a node's first two methods sit in its
// inline table and the rest in the spill map; registration, dispatch, the
// duplicate-handler panics and ErrNoHandler are the same in both places.
func TestMethodTableInlineAndSpill(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	fast := func(tag string) FastHandler {
		return func(Message) (Message, error) { return Message{Payload: "fast:" + tag}, nil }
	}
	blocking := func(tag string) Handler {
		return func(*sim.Proc, Message) (Message, error) { return Message{Payload: "blocking:" + tag}, nil }
	}
	decline := func(Message) (Message, error) { return Message{}, ErrWouldBlock }
	srv.HandleFast("m0", fast("m0"))
	srv.Handle("m1", blocking("m1"))
	srv.HandleFast("m2", fast("m2"))
	srv.Handle("m3", blocking("m3"))
	srv.Handle("m4", blocking("m4")) // both handlers, blocking first
	srv.HandleFast("m4", decline)
	srv.HandleFast("m1", decline) // both handlers, inline slot
	if len(srv.own.spill) != 3 {
		t.Fatalf("%d methods spilled, want 3 of 5", len(srv.own.spill))
	}

	want := map[string]string{"m0": "fast:m0", "m1": "blocking:m1", "m2": "fast:m2", "m3": "blocking:m3", "m4": "blocking:m4"}
	k.Spawn("client", func(p *sim.Proc) {
		for _, m := range []string{"m0", "m1", "m2", "m3", "m4"} {
			rep, err := f.Call(p, 1, 2, m, Message{})
			if err != nil || rep.Payload != want[m] {
				t.Errorf("%s: reply %v, err %v; want %s", m, rep.Payload, err, want[m])
			}
		}
		_, err := f.Call(p, 1, 2, "m5", Message{})
		if !errors.Is(err, ErrNoHandler) || !strings.Contains(err.Error(), `"m5" on node 2`) {
			t.Errorf("unregistered method: err = %v, want ErrNoHandler naming it", err)
		}
	})
	k.Run()

	for _, tc := range []struct {
		register func()
		want     string
	}{
		{func() { srv.Handle("m1", blocking("again")) }, `simnet: duplicate handler "m1" on node 2`},
		{func() { srv.HandleFast("m0", fast("again")) }, `simnet: duplicate fast handler "m0" on node 2`},
		{func() { srv.Handle("m3", blocking("again")) }, `simnet: duplicate handler "m3" on node 2`},
		{func() { srv.HandleFast("m2", fast("again")) }, `simnet: duplicate fast handler "m2" on node 2`},
	} {
		func() {
			defer func() {
				if r := recover(); r != tc.want {
					t.Errorf("panic = %v, want %s", r, tc.want)
				}
			}()
			tc.register()
		}()
	}
}
