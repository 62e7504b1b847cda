package simnet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// wireNS is the closed form of a message's wire time on cfg's fabric:
// its bytes plus the per-message header at line rate, truncated to whole
// nanoseconds. The product is taken in 128 bits, so it is exact for any
// size a machine can hold.
func wireNS(cfg Config, bytes int64) time.Duration {
	hi, lo := bits.Mul64(uint64(bytes+cfg.MsgOverheadBytes), uint64(time.Second))
	q, _ := bits.Div64(hi, lo, uint64(cfg.Bandwidth))
	return time.Duration(q)
}

// TestIdleCallCostIsClosedForm: on an idle fabric a call costs exactly
// the caller's RPC overhead, one propagation latency each way, and each
// message's wire time, in integer nanoseconds computed from the Config
// alone. Checked on the default fabric, the unit-test fabric and one
// whose every constant is odd, for fixed sizes from empty to 100 MB and
// 200 seeded draws below 1 GiB per fabric.
//
// The fabric computes a wire time as a float64 quotient and truncates
// it, which lands 1 ns off the closed form for a few sizes in a
// thousand. That is ROADMAP item 2's to fix, since it moves simulated
// output: the test fails on any other difference and otherwise skips,
// naming the sizes.
func TestIdleCallCostIsClosedForm(t *testing.T) {
	odd := Config{
		Latency:          3*time.Microsecond + 7,
		Bandwidth:        3_000_000_007,
		RPCOverhead:      1234 * time.Nanosecond,
		MsgOverheadBytes: 37,
	}
	rng := rand.New(rand.NewSource(1))
	checked, rounded, first := 0, 0, ""
	for ci, cfg := range []Config{DefaultConfig(), testConfig(), odd} {
		sizes := []int64{0, 1, 100, 4096, 1 << 20, 100_000_007}
		for i := 0; i < 200; i++ {
			sizes = append(sizes, rng.Int63n(1<<30))
		}
		for _, req := range sizes {
			rep := req/3 + 5
			k := sim.NewKernel(1)
			f := New(k, cfg)
			f.AddNode(1)
			f.AddNode(2).HandleFast("m", func(Message) (Message, error) { return Message{Bytes: rep}, nil })
			var took time.Duration
			k.Spawn("caller", func(p *sim.Proc) {
				start := p.Now()
				if _, err := f.Call(p, 1, 2, "m", Message{Bytes: req}); err != nil {
					t.Errorf("config %d, %d bytes: %v", ci, req, err)
				}
				took = p.Now().Sub(start)
			})
			k.Run()
			k.Close()
			want := cfg.RPCOverhead + 2*cfg.Latency + wireNS(cfg, req) + wireNS(cfg, rep)
			checked++
			switch d := took - want; {
			case d == 0:
			case d >= -2 && d <= 2: // one nanosecond per wire term at most
				if rounded++; first == "" {
					first = fmt.Sprintf("config %d: %d-byte request, %d-byte reply: %d ns, closed form %d ns", ci, req, rep, took, want)
				}
			default:
				t.Errorf("config %d, %d-byte request, %d-byte reply: idle call took %d ns, closed form %d ns (overhead %v + 2 x %v + wire %v + %v)",
					ci, req, rep, took, want, cfg.RPCOverhead, cfg.Latency, wireNS(cfg, req), wireNS(cfg, rep))
			}
		}
	}
	if rounded > 0 {
		t.Skipf("ROADMAP item 2: simnet's wireTime truncates a float64 quotient, so %d of %d calls are 1 ns per message off the closed form (first: %s)",
			rounded, checked, first)
	}
}

// batchMeans returns the mean of xs and its standard error from 10 batch
// means.
func batchMeans(xs []float64) (mean, se float64) {
	const batches = 10
	n := len(xs) / batches
	var ms [batches]float64
	for b := range ms {
		for _, x := range xs[b*n : (b+1)*n] {
			ms[b] += x
		}
		ms[b] /= float64(n)
		mean += ms[b] / batches
	}
	var ss float64
	for _, m := range ms {
		ss += (m - mean) * (m - mean)
	}
	return mean, math.Sqrt(ss / (batches - 1) / batches)
}

// nicWaits sends msgs messages of size bytes to node 0 at Poisson times
// at rate rho/S, from 64 senders in turn, and returns each message's wait
// after a warm-up, in arrival order and in units of S: its delivery less
// its send instant, the propagation latency and its wire time. A sender's
// next message leaves 64 arrivals later, by when its NIC has long been
// idle, so every wait is the receiver's.
func nicWaits(seed int64, cfg Config, size int64, rho float64, msgs, warm int) []float64 {
	const senders = 64
	k := sim.NewKernel(seed)
	defer k.Close()
	f := New(k, cfg)
	for id := NodeID(0); id <= senders; id++ {
		f.AddNode(id)
	}
	s := wireNS(cfg, size)
	rng := rand.New(rand.NewSource(seed))
	sent := make([]sim.Time, msgs)
	waits := make([]float64, msgs)
	landed := func(i uint64) {
		waits[i] = float64(k.Now()-sent[i]-sim.Time(cfg.Latency)-sim.Time(s)) / float64(s)
	}
	at := sim.Time(0)
	for i := range sent {
		at += sim.Time(rng.ExpFloat64() / rho * float64(s))
		sent[i] = at
		from := NodeID(1 + i%senders)
		k.ScheduleTagged(at, func(i uint64) {
			if _, err := f.transferAsyncTagged(from, 0, size, landed, i); err != nil {
				panic(err)
			}
		}, uint64(i))
	}
	k.Run()
	return waits[warm:]
}

// TestNICQueueIsMD1: fixed-size messages from distinct senders, arriving
// at one receiver at Poisson times, wait in its receive queue the M/D/1
// mean of Pollaczek–Khinchine,
//
//	W = ρS / (2(1 − ρ)),  ρ = λS,
//
// where S is a message's wire time, at ρ ∈ {0.5, 0.8, 0.95} (the first two
// with -short). Tolerances are batch means, as cluster's closed forms
// have them: 10 batches of the messages after a warm-up, in arrival
// order, each over 15 relaxation times of the queue, and the measured
// mean within 5 standard errors.
//
// Hand mutations this fails on (each tried): the receive side reserved
// from the message's arrival even while the NIC is busy (no queueing);
// the receive NIC released a tenth of a wire time early.
func TestNICQueueIsMD1(t *testing.T) {
	cfg := DefaultConfig()
	const size = 12436 // 12,500 bytes with the header: S = 1 µs
	rhos := []float64{0.5, 0.8, 0.95}
	if testing.Short() {
		rhos = rhos[:2]
	}
	for i, rho := range rhos {
		msgs := 100_000
		if rho > 0.9 {
			msgs = 300_000
		}
		mean, se := batchMeans(nicWaits(int64(i+1), cfg, size, rho, msgs, msgs/20))
		want := rho / (2 * (1 - rho))
		t.Logf("ρ=%.2f: mean wait %.3f S, closed form %.3f S, SE %.3f S", rho, mean, want, se)
		if math.Abs(mean-want) > 5*se {
			t.Errorf("ρ=%.2f: mean wait %.3f S, M/D/1 %.3f S: off by %.1f standard errors (SE %.3f S, %d messages)",
				rho, mean, want, math.Abs(mean-want)/se, se, msgs)
		}
	}
}

// TestExtraLatencyAddsToPropagationOnly: a latency spike on one link
// delays that link's messages by the spike, as propagation, and delays
// nothing else: a message on a healthy link to the same receiver, sent
// after the slow one but landing first, is received as if the slow one
// did not exist.
//
// The fabric reserves the receiver's NIC from the slow message's late
// arrival on, so the healthy message queues behind a message that has not
// arrived. That is ROADMAP item 2(ii)'s to fix, since it moves simulated
// output: the test fails on any other outcome and otherwise skips,
// naming it.
func TestExtraLatencyAddsToPropagationOnly(t *testing.T) {
	cfg := DefaultConfig()
	const size = 12436
	const spike = 3 * time.Millisecond
	s := wireNS(cfg, size)
	k := sim.NewKernel(1)
	defer k.Close()
	f := New(k, cfg)
	for id := NodeID(0); id < 3; id++ {
		f.AddNode(id)
	}
	f.SetLinkFault(1, 0, LinkFault{ExtraLatency: spike})
	var slow, healthy sim.Time
	send := func(from NodeID, at sim.Time, got *sim.Time) {
		k.Schedule(at, func() {
			if _, err := f.transferAsyncTagged(from, 0, size, func(uint64) { *got = k.Now() }, 0); err != nil {
				t.Error(err)
			}
		})
	}
	send(1, 0, &slow)
	send(2, sim.Time(time.Microsecond), &healthy)
	k.Run()
	if want := sim.Time(cfg.Latency + spike + s); slow != want {
		t.Errorf("the slow link's message landed at %v, want latency + spike + wire = %v", slow, want)
	}
	want := sim.Time(time.Microsecond + cfg.Latency + s)
	switch healthy {
	case want:
	case slow + sim.Time(s):
		t.Skipf("ROADMAP item 2(ii): the healthy link's message landed at %v, behind the slow one's receive at %v, not at latency + wire = %v",
			healthy, slow, want)
	default:
		t.Errorf("the healthy link's message landed at %v, want latency + wire = %v", healthy, want)
	}
}
