package simnet

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// testConfig: 1 GB/s, 10 us latency, zero overheads for easy arithmetic.
func testConfig() Config {
	return Config{
		Latency:          10 * time.Microsecond,
		Bandwidth:        1_000_000_000,
		RPCOverhead:      0,
		MsgOverheadBytes: 0,
	}
}

func TestTransferTiming(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(2)
	var done sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		// 1 MB at 1 GB/s = 1 ms wire + 10 us latency.
		if err := f.Transfer(p, 1, 2, 1_000_000); err != nil {
			t.Errorf("Transfer: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	want := sim.Time(time.Millisecond + 10*time.Microsecond)
	if done != want {
		t.Errorf("transfer completed at %v, want %v", done, want)
	}
}

func TestTransferSameNodeFree(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	var done sim.Time = -1
	k.Spawn("p", func(p *sim.Proc) {
		if err := f.Transfer(p, 1, 1, 1<<30); err != nil {
			t.Errorf("Transfer: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Errorf("same-node transfer took %v, want 0", done)
	}
}

func TestTransfersSerializeOnTxNIC(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(2)
	f.AddNode(3)
	var d2, d3 sim.Time
	k.Spawn("a", func(p *sim.Proc) {
		f.Transfer(p, 1, 2, 1_000_000)
		d2 = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		f.Transfer(p, 1, 3, 1_000_000)
		d3 = p.Now()
	})
	k.Run()
	// Both leave node 1's NIC: second transfer must wait for the first
	// transmission to finish (1ms), then its own 1ms + latency.
	want2 := sim.Time(time.Millisecond + 10*time.Microsecond)
	want3 := sim.Time(2*time.Millisecond + 10*time.Microsecond)
	if d2 != want2 || d3 != want3 {
		t.Errorf("d2=%v d3=%v, want %v and %v", d2, d3, want2, want3)
	}
}

func TestTransfersSerializeOnRxNIC(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(2)
	f.AddNode(3)
	var times []sim.Time
	for _, src := range []NodeID{1, 2} {
		src := src
		k.Spawn("s", func(p *sim.Proc) {
			f.Transfer(p, src, 3, 1_000_000)
			times = append(times, p.Now())
		})
	}
	k.Run()
	// Different sources, same sink: rx NIC serializes them.
	want0 := sim.Time(time.Millisecond + 10*time.Microsecond)
	want1 := sim.Time(2*time.Millisecond + 10*time.Microsecond)
	if times[0] != want0 || times[1] != want1 {
		t.Errorf("times=%v, want [%v %v]", times, want0, want1)
	}
}

func TestMsgOverheadBytes(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	cfg.MsgOverheadBytes = 1000
	cfg.Latency = 0
	f := New(k, cfg)
	f.AddNode(1)
	f.AddNode(2)
	var done sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		f.Transfer(p, 1, 2, 0) // pure header: 1000 B at 1 GB/s = 1 us
		done = p.Now()
	})
	k.Run()
	if done != sim.Time(time.Microsecond) {
		t.Errorf("done = %v, want 1us", done)
	}
	if f.Node(1).TxBytes.Value() != 1000 {
		t.Errorf("TxBytes = %d, want 1000", f.Node(1).TxBytes.Value())
	}
}

// TestTransferAsync: the asynchronous transfer under every call's
// messages runs its callback, with its tag, at the instant it returns:
// one latency plus the wire time after the send.
func TestTransferAsync(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(2)
	var at sim.Time = -1
	lands, err := f.transferAsyncTagged(1, 2, 1_000_000, func(tag uint64) {
		if tag != 7 {
			t.Errorf("tag = %d, want 7", tag)
		}
		at = k.Now()
	}, 7)
	if err != nil {
		t.Fatalf("transferAsyncTagged: %v", err)
	}
	k.Run()
	want := sim.Time(time.Millisecond + 10*time.Microsecond)
	if at != want || lands != want {
		t.Errorf("delivered at %v, reported %v, want %v", at, lands, want)
	}
}

func TestCallRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	srv.Handle("echo", func(p *sim.Proc, req Message) (Message, error) {
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
	// 0.5 ms each way + 2x10us latency.
	want := sim.Time(time.Millisecond + 20*time.Microsecond)
	if done != want {
		t.Errorf("round trip = %v, want %v", done, want)
	}
	if f.Calls.Value() != 1 {
		t.Errorf("Calls = %d, want 1", f.Calls.Value())
	}
}

func TestCallHandlerBlocks(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	cfg.Latency = 0
	f := New(k, cfg)
	f.AddNode(1)
	srv := f.AddNode(2)
	srv.Handle("slow", func(p *sim.Proc, req Message) (Message, error) {
		p.Sleep(5 * time.Millisecond)
		return Message{}, nil
	})
	var done sim.Time
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 2, "slow", Message{}); err != nil {
			t.Errorf("Call: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	if done != 5*sim.Millisecond {
		t.Errorf("done = %v, want 5ms", done)
	}
}

func TestCallHandlerError(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	srv := f.AddNode(2)
	errBoom := errors.New("boom")
	srv.Handle("fail", func(p *sim.Proc, req Message) (Message, error) {
		return Message{}, errBoom
	})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 2, "fail", Message{}); !errors.Is(err, errBoom) {
			t.Errorf("Call err = %v, want boom", err)
		}
	})
	k.Run()
}

func TestCallNoHandler(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(2)
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 2, "missing", Message{}); !errors.Is(err, ErrNoHandler) {
			t.Errorf("err = %v, want ErrNoHandler", err)
		}
	})
	k.Run()
}

func TestCallSameNodeSkipsWire(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	n := f.AddNode(1)
	n.Handle("f", func(p *sim.Proc, req Message) (Message, error) {
		return Message{Payload: 1}, nil
	})
	var done sim.Time = -1
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 1, "f", Message{Bytes: 1 << 20}); err != nil {
			t.Errorf("Call: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Errorf("local call took %v, want 0", done)
	}
}

func TestNodeDown(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(2).SetDown(true)
	k.Spawn("client", func(p *sim.Proc) {
		if err := f.Transfer(p, 1, 2, 100); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Transfer err = %v, want ErrNodeDown", err)
		}
		if _, err := f.Call(p, 1, 2, "x", Message{}); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Call err = %v, want ErrNodeDown", err)
		}
	})
	k.Run()
	// Recover and verify reachability is restored.
	f.Node(2).SetDown(false)
	f.Node(2).Handle("x", func(p *sim.Proc, req Message) (Message, error) { return Message{}, nil })
	k.Spawn("client2", func(p *sim.Proc) {
		if _, err := f.Call(p, 1, 2, "x", Message{}); err != nil {
			t.Errorf("Call after recovery: %v", err)
		}
	})
	k.Run()
}

// The node table is indexed by id. Ids may arrive out of order and
// leave gaps; a gap, an id past the end and a negative id are all "no
// such node".
func TestUnknownNode(t *testing.T) {
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	n3, n1 := f.AddNode(3), f.AddNode(1)
	if f.Node(3) != n3 || f.Node(1) != n1 {
		t.Fatal("Node does not return what AddNode attached")
	}
	unknown := []NodeID{0, 2, 4, 99, -1}
	for _, id := range unknown {
		if f.Node(id) != nil {
			t.Errorf("Node(%d) = %v, want nil", id, f.Node(id))
		}
	}
	k.Spawn("client", func(p *sim.Proc) {
		for _, id := range unknown {
			if err := f.Transfer(p, 1, id, 100); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("to %d: err = %v, want ErrNoSuchNode", id, err)
			}
			if err := f.Transfer(p, id, 1, 100); !errors.Is(err, ErrNoSuchNode) {
				t.Errorf("from %d: err = %v, want ErrNoSuchNode", id, err)
			}
		}
	})
	k.Run()
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := sim.NewKernel(1)
	f := New(k, testConfig())
	f.AddNode(1)
	f.AddNode(1)
}

func TestRPCOverheadCharged(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testConfig()
	cfg.RPCOverhead = 3 * time.Microsecond
	cfg.Latency = 0
	f := New(k, cfg)
	n := f.AddNode(1)
	n.Handle("f", func(p *sim.Proc, req Message) (Message, error) { return Message{}, nil })
	var done sim.Time
	k.Spawn("c", func(p *sim.Proc) {
		f.Call(p, 1, 1, "f", Message{})
		done = p.Now()
	})
	k.Run()
	if done != 3*sim.Microsecond {
		t.Errorf("done = %v, want 3us overhead", done)
	}
}

// Property: transfer completion time is monotone in payload size and
// never less than the propagation latency for cross-node transfers.
func TestTransferMonotoneProperty(t *testing.T) {
	f := func(sizesRaw []uint32) bool {
		k := sim.NewKernel(1)
		fab := New(k, testConfig())
		fab.AddNode(1)
		fab.AddNode(2)
		prevDone := sim.Time(0)
		okAll := true
		k.Spawn("s", func(p *sim.Proc) {
			for _, s := range sizesRaw {
				start := p.Now()
				if err := fab.Transfer(p, 1, 2, int64(s)); err != nil {
					okAll = false
					return
				}
				elapsed := p.Now().Sub(start)
				if elapsed < 10*time.Microsecond {
					okAll = false
					return
				}
				if p.Now() < prevDone {
					okAll = false
					return
				}
				prevDone = p.Now()
			}
		})
		k.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: byte accounting is conserved — every transfer adds exactly
// payload+header to the source's TxBytes and destination's RxBytes.
func TestByteConservationProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel(1)
		cfg := testConfig()
		cfg.MsgOverheadBytes = 64
		fab := New(k, cfg)
		fab.AddNode(1)
		fab.AddNode(2)
		var want int64
		k.Spawn("s", func(p *sim.Proc) {
			for _, s := range sizes {
				if err := fab.Transfer(p, 1, 2, int64(s)); err != nil {
					return
				}
				want += int64(s) + 64
			}
		})
		k.Run()
		return fab.Node(1).TxBytes.Value() == want && fab.Node(2).RxBytes.Value() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: concurrent transfers through one NIC take at least the
// serialized wire time (bandwidth cannot be exceeded).
func TestBandwidthCapProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		k := sim.NewKernel(1)
		fab := New(k, testConfig())
		fab.AddNode(1)
		fab.AddNode(2)
		const size = 500_000 // 0.5ms each at 1 GB/s
		var last sim.Time
		for i := 0; i < n; i++ {
			k.Spawn("s", func(p *sim.Proc) {
				fab.Transfer(p, 1, 2, size)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		k.Run()
		minTime := sim.Time(n) * sim.Time(500*time.Microsecond)
		return last >= minTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// callWithTimeout is Call with an explicit per-call deadline, d as for
// StartCall.
func (f *Fabric) callWithTimeout(p *sim.Proc, from, to NodeID, method string, req Message, d time.Duration) (Message, error) {
	cs, err := f.StartCall(from, to, method, req, d)
	if err != nil {
		return Message{}, err
	}
	p.Await(cs.Stage(), cs.stage())
	return cs.End()
}
