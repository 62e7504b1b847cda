package simnet

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

func echoFabric(k *sim.Kernel, cfg Config) *Fabric {
	f := New(k, cfg)
	f.AddNode(1)
	n2 := f.AddNode(2)
	n2.Handle("echo", func(p *sim.Proc, req Message) (Message, error) {
		return req, nil
	})
	n2.Handle("slow", func(p *sim.Proc, req Message) (Message, error) {
		p.Sleep(time.Millisecond)
		return req, nil
	})
	return f
}

func TestCallTimesOutOnPartition(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := echoFabric(k, testConfig())
	f.SetLinkFault(1, 2, LinkFault{Partitioned: true})
	var took sim.Time
	var err error
	k.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		_, err = f.callWithTimeout(p, 1, 2, "echo", Message{Bytes: 100}, 500*time.Microsecond)
		took = p.Now() - start
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took != sim.Time(500*time.Microsecond) {
		t.Errorf("call resolved after %v, want exactly the 500us deadline", took)
	}
	if f.Timeouts.Value() != 1 {
		t.Errorf("Timeouts = %d, want 1", f.Timeouts.Value())
	}
}

func TestCallOnPartitionWithoutDeadlineFailsImmediately(t *testing.T) {
	// No deadline armed anywhere: the loss must still resolve the call
	// (the no-hang guarantee) rather than strand the caller.
	k := sim.NewKernel(1)
	defer k.Close()
	f := echoFabric(k, testConfig())
	f.SetLinkFault(1, 2, LinkFault{Partitioned: true})
	var err error
	done := false
	k.Spawn("caller", func(p *sim.Proc) {
		_, err = f.Call(p, 1, 2, "echo", Message{Bytes: 100})
		done = true
	})
	k.Run()
	if !done {
		t.Fatal("caller hung on a partitioned link with no deadline")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDefaultCallTimeoutFromConfig(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := testConfig()
	cfg.CallTimeout = 300 * time.Microsecond
	f := echoFabric(k, cfg)
	f.SetLinkFault(1, 2, LinkFault{Partitioned: true})
	var took sim.Time
	var err error
	k.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		_, err = f.Call(p, 1, 2, "echo", Message{Bytes: 100})
		took = p.Now() - start
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took != sim.Time(300*time.Microsecond) {
		t.Errorf("call resolved after %v, want the 300us fabric default", took)
	}
}

func TestReplyLossResolvesViaDeadline(t *testing.T) {
	// Partition the link while the handler is running: the request got
	// through, the reply is eaten, and the deadline resolves the call.
	k := sim.NewKernel(1)
	defer k.Close()
	f := echoFabric(k, testConfig())
	var err error
	k.Spawn("caller", func(p *sim.Proc) {
		_, err = f.callWithTimeout(p, 1, 2, "slow", Message{Bytes: 100}, 5*time.Millisecond)
	})
	k.Schedule(sim.Time(500*time.Microsecond), func() {
		f.SetLinkFault(1, 2, LinkFault{Partitioned: true})
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout (reply lost)", err)
	}
}

// TestPartitionHealOrdering drives one call per phase of a
// partition/heal sequence and checks each call's outcome is decided by
// the link state at the instants its messages are sent.
func TestPartitionHealOrdering(t *testing.T) {
	cases := []struct {
		name                string
		partitionAt, healAt sim.Time // fault window
		callAt              sim.Time
		wantErr             error
	}{
		{"before-partition", 1000_000, 2_000_000, 0, nil},
		{"inside-window", 0, 2_000_000, 1_000_000, ErrTimeout},
		{"after-heal", 0, 1_000_000, 2_000_000, nil},
		// Request sent during the partition is lost for good: healing
		// the link later cannot resurrect it.
		{"heal-cannot-resurrect", 0, 200_000, 100_000, ErrTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			defer k.Close()
			f := echoFabric(k, testConfig())
			k.Schedule(tc.partitionAt, func() {
				f.SetLinkFault(1, 2, LinkFault{Partitioned: true})
			})
			k.Schedule(tc.healAt, func() { f.ClearLinkFault(1, 2) })
			var err error
			called := false
			k.Schedule(tc.callAt, func() {
				k.Spawn("caller", func(p *sim.Proc) {
					_, err = f.callWithTimeout(p, 1, 2, "echo", Message{Bytes: 10}, 5*time.Millisecond)
					called = true
				})
			})
			k.Run()
			if !called {
				t.Fatal("call never resolved")
			}
			if !errors.Is(err, tc.wantErr) && !(tc.wantErr == nil && err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestLatencySpikeDelaysCall(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := echoFabric(k, testConfig())
	rtt := func() sim.Time {
		var took sim.Time
		k.Spawn("caller", func(p *sim.Proc) {
			start := p.Now()
			if _, err := f.Call(p, 1, 2, "echo", Message{Bytes: 0}); err != nil {
				t.Errorf("Call: %v", err)
			}
			took = p.Now() - start
		})
		k.Run()
		return took
	}
	base := rtt()
	f.SetLinkFault(1, 2, LinkFault{ExtraLatency: 100 * time.Microsecond})
	spiked := rtt()
	// The spike applies one-way to each leg of the round trip.
	if want := base + sim.Time(200*time.Microsecond); spiked != want {
		t.Errorf("spiked RTT = %v, want %v (base %v + 2x100us)", spiked, want, base)
	}
	f.ClearLinkFault(1, 2)
	if healed := rtt(); healed != base {
		t.Errorf("healed RTT = %v, want base %v", healed, base)
	}
}

func TestSetDownFailsInflightCalls(t *testing.T) {
	// The handler sleeps 1 ms; the destination dies 200 us in. The
	// caller must get ErrNodeDown at the instant of the failure, not
	// hang until (or beyond) the handler's reply.
	for _, who := range []string{"destination", "source"} {
		t.Run(who, func(t *testing.T) {
			k := sim.NewKernel(1)
			defer k.Close()
			f := echoFabric(k, testConfig())
			var err error
			var at sim.Time = -1
			k.Spawn("caller", func(p *sim.Proc) {
				_, err = f.Call(p, 1, 2, "slow", Message{Bytes: 10})
				at = p.Now()
			})
			victim := NodeID(2)
			if who == "source" {
				victim = 1
			}
			k.Schedule(sim.Time(200*time.Microsecond), func() {
				f.Node(victim).SetDown(true)
			})
			k.Run()
			if !errors.Is(err, ErrNodeDown) {
				t.Fatalf("err = %v, want ErrNodeDown", err)
			}
			if at != sim.Time(200*time.Microsecond) {
				t.Errorf("call resolved at %v, want the failure instant 200us", at)
			}
		})
	}
}

func TestSetDownThenUpCompletesNewCalls(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := echoFabric(k, testConfig())
	f.Node(2).SetDown(true)
	var errDown, errUp error
	k.Spawn("caller", func(p *sim.Proc) {
		_, errDown = f.Call(p, 1, 2, "echo", Message{Bytes: 10})
		f.Node(2).SetDown(false)
		_, errUp = f.Call(p, 1, 2, "echo", Message{Bytes: 10})
	})
	k.Run()
	if !errors.Is(errDown, ErrNodeDown) {
		t.Errorf("down err = %v, want ErrNodeDown", errDown)
	}
	if errUp != nil {
		t.Errorf("up err = %v, want nil", errUp)
	}
}

func TestDropProbDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		k := sim.NewKernel(seed)
		defer k.Close()
		f := echoFabric(k, testConfig())
		f.SetLinkFault(1, 2, LinkFault{DropProb: 0.5})
		outcomes := make([]bool, 0, 64)
		k.Spawn("caller", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				_, err := f.callWithTimeout(p, 1, 2, "echo", Message{Bytes: 10}, 100*time.Microsecond)
				outcomes = append(outcomes, err == nil)
			}
		})
		k.Run()
		return outcomes
	}
	a, b := run(7), run(7)
	ok, drop := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: outcome differs across identical seeds", i)
		}
		if a[i] {
			ok++
		} else {
			drop++
		}
	}
	if ok == 0 || drop == 0 {
		t.Errorf("with DropProb 0.5 over 64 calls expected a mix, got %d ok / %d dropped", ok, drop)
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical drop patterns (RNG not wired?)")
	}
}

func TestTransferTimesOutOnPartition(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := testConfig()
	cfg.CallTimeout = time.Millisecond
	f := echoFabric(k, cfg)
	f.SetLinkFault(1, 2, LinkFault{Partitioned: true})
	var err error
	var took sim.Time
	k.Spawn("sender", func(p *sim.Proc) {
		start := p.Now()
		err = f.Transfer(p, 1, 2, 1<<20)
		took = p.Now() - start
	})
	k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took != sim.Time(time.Millisecond) {
		t.Errorf("transfer failed after %v, want the 1ms timeout window", took)
	}
}

// TestNoHangUnderRandomFaults hammers the fabric with randomized
// partitions, drops, and node flaps while callers issue deadline-bound
// RPCs: every call must resolve and the kernel must drain.
func TestNoHangUnderRandomFaults(t *testing.T) {
	const callers, calls = 8, 50
	k := sim.NewKernel(99)
	defer k.Close()
	cfg := testConfig()
	cfg.CallTimeout = 200 * time.Microsecond
	f := New(k, cfg)
	const nodes = 4
	for id := 0; id < nodes; id++ {
		n := f.AddNode(NodeID(id))
		n.Handle("work", func(p *sim.Proc, req Message) (Message, error) {
			p.Sleep(10 * time.Microsecond)
			return req, nil
		})
	}
	// Chaos driver: random fault churn every 50 us.
	k.Spawn("chaos", func(p *sim.Proc) {
		rng := k.Rand()
		for i := 0; i < 200; i++ {
			a := NodeID(rng.Intn(nodes))
			b := NodeID(rng.Intn(nodes))
			switch rng.Intn(4) {
			case 0:
				f.SetLinkFault(a, b, LinkFault{Partitioned: true})
			case 1:
				f.ClearLinkFault(a, b)
			case 2:
				if n := f.Node(a); n != nil {
					n.SetDown(!n.down)
				}
			case 3:
				f.SetLinkFault(a, b, LinkFault{DropProb: 0.3, ExtraLatency: 20 * time.Microsecond})
			}
			p.Sleep(50 * time.Microsecond)
		}
		// Heal everything so stragglers can finish.
		for a := 0; a < nodes; a++ {
			f.Node(NodeID(a)).SetDown(false)
			for b := 0; b < nodes; b++ {
				f.ClearLinkFault(NodeID(a), NodeID(b))
			}
		}
	})
	resolved := 0
	for c := 0; c < callers; c++ {
		src := NodeID(c % nodes)
		k.Spawn(fmt.Sprintf("caller%d", c), func(p *sim.Proc) {
			rng := k.Rand()
			for i := 0; i < calls; i++ {
				dst := NodeID(rng.Intn(nodes))
				_, err := f.Call(p, src, dst, "work", Message{Bytes: 64})
				if err != nil && !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrNodeDown) {
					t.Errorf("caller%d call %d: unexpected error %v", c, i, err)
				}
				resolved++
				p.Sleep(5 * time.Microsecond)
			}
		})
	}
	k.Run()
	if resolved != callers*calls {
		t.Fatalf("resolved %d/%d calls — some caller hung", resolved, callers*calls)
	}
	if got := k.Blocked(); got != 0 {
		t.Fatalf("%d processes still blocked after drain", got)
	}
}

// TestDeadlineThatCannotFireIsNeverQueued: a fast call whose reply is
// known, when it is sent, to land before the deadline costs four events
// — send stage, delivery, reply, resume — and leaves nothing behind in
// the queue; the deadline's sequence number is still consumed, so a call
// that does need its deadline gets the event where it always was.
func TestDeadlineThatCannotFireIsNeverQueued(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := testConfig()
	cfg.CallTimeout = 2 * time.Millisecond
	f := echoFabric(k, cfg)
	f.Node(2).HandleFast("fast", func(req Message) (Message, error) { return req, nil })
	var err error
	k.Spawn("caller", func(p *sim.Proc) {
		_, err = f.Call(p, 1, 2, "fast", Message{Bytes: 100})
	})
	k.Step() // the caller starts and parks in Call
	before := k.EventsProcessed()
	for k.Live() > 0 && k.Step() {
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := k.EventsProcessed() - before; n != 4 {
		t.Errorf("a fast call under a deadline took %d events, want 4", n)
	}
	if k.Pending() != 0 {
		t.Errorf("%d events left queued after the call, want 0", k.Pending())
	}

	// A blocking handler can outlast any deadline, so its call keeps one.
	k.Spawn("caller", func(p *sim.Proc) {
		_, err = f.Call(p, 1, 2, "echo", Message{Bytes: 100})
	})
	for k.Live() > 0 && k.Step() {
	}
	if err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 1 {
		t.Errorf("%d events queued after a blocking call, want its deadline", k.Pending())
	}
}

// timedOutOrder sends one call per entry of timeouts (0: the fabric's
// default), 10 µs apart, to a handler that outlasts them all. It returns
// the callers in the order their calls timed out, the order (time, seq)
// gives them — by deadline instant, the earlier-sent call first at a tie —
// and the kernel's lane census.
func timedOutOrder(t *testing.T, timeouts []time.Duration) (got, want []int, st sim.QueueStats) {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	cfg := testConfig()
	cfg.CallTimeout = 200 * time.Microsecond
	f := echoFabric(k, cfg)
	deadline := make([]sim.Time, len(timeouts))
	for i, d := range timeouts {
		sent := sim.Time(i) * 10 * sim.Microsecond
		k.Schedule(sent, func() {
			k.Spawn("caller", func(p *sim.Proc) {
				if _, err := f.callWithTimeout(p, 1, 2, "slow", Message{Bytes: 100}, d); !errors.Is(err, ErrTimeout) {
					t.Errorf("call %d: err = %v, want a timeout", i, err)
				}
				if p.Now() != deadline[i] {
					t.Errorf("call %d timed out at %v, want %v", i, p.Now(), deadline[i])
				}
				got = append(got, i)
			})
		})
		if d == 0 {
			d = cfg.CallTimeout
		}
		deadline[i] = sent.Add(cfg.RPCOverhead + d)
		want = append(want, i)
	}
	slices.SortStableFunc(want, func(a, b int) int { return int(deadline[a] - deadline[b]) })
	k.Run()
	return got, want, k.QueueStats()
}

// TestDeadlinesAtOneTimeoutRideTheLane: a blocking handler's call queues
// its deadline, and at the fabric's one timeout the deadlines come due in
// the order the calls were sent, so all of them take the fabric's lane.
// Deadlines under other timeouts arrive out of that order: those go
// through the heap, and every call still resolves where (time, seq) puts
// it.
func TestDeadlinesAtOneTimeoutRideTheLane(t *testing.T) {
	got, want, st := timedOutOrder(t, make([]time.Duration, 40))
	if !slices.Equal(got, want) || st.LaneFallbacks != 0 || st.LaneAppends < 40 {
		t.Errorf("one timeout: calls timed out in order %v, want %v; %d lane appends, %d fallbacks, want >= 40 and 0",
			got, want, st.LaneAppends, st.LaneFallbacks)
	}

	us := time.Microsecond
	mixed := make([]time.Duration, 40)
	for i := range mixed {
		// 0 is the default, 200 µs. There are ties: call 5n+7 (130 µs) comes
		// due at the instant call 5n does, call 5n+16 (50 µs) with call 5n+4
		// (170 µs).
		mixed[i] = []time.Duration{0, 50 * us, 130 * us, 0, 170 * us}[i%5]
	}
	got, want, st = timedOutOrder(t, mixed)
	if !slices.Equal(got, want) {
		t.Errorf("mixed timeouts: calls timed out in order\n%v, want\n%v", got, want)
	}
	if st.LaneFallbacks == 0 || slices.IsSorted(want) {
		t.Errorf("mixed timeouts: %d fallbacks to the heap and deadline order %v: want some, and not the sending order", st.LaneFallbacks, want)
	}
}

// A crashed node is refused at every heartbeat and retry, so the refusal
// is built once per node and direction: two refused calls return the
// identical error value, in the words a fresh fmt.Errorf would use, and
// it still wraps ErrNodeDown.
func TestDownErrorsAreBuiltOncePerNode(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Close()
	f := echoFabric(k, testConfig())
	f.Node(2).SetDown(true)
	var toDown, fromDown [2]error
	k.Spawn("caller", func(p *sim.Proc) {
		for i := range toDown {
			_, toDown[i] = f.Call(p, 1, 2, "echo", Message{Bytes: 10})
			fromDown[i] = f.Transfer(p, 2, 1, 10)
		}
	})
	k.Run()
	for _, c := range []struct {
		errs [2]error
		text string
	}{
		{toDown, "simnet: node is down: destination 2"},
		{fromDown, "simnet: node is down: source 2"},
	} {
		if c.errs[0] != c.errs[1] {
			t.Errorf("two refusals returned distinct errors %p and %p", c.errs[0], c.errs[1])
		}
		if !errors.Is(c.errs[0], ErrNodeDown) || c.errs[0].Error() != c.text {
			t.Errorf("refusal = %q, want %q wrapping ErrNodeDown", c.errs[0], c.text)
		}
	}
	if a := testing.AllocsPerRun(100, func() { _, _, _ = f.checkPath(1, 2) }); a != 0 {
		t.Errorf("a refused path check allocates %v objects, want 0", a)
	}
}
