package simnet

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// testPartCfg uses round numbers so latency arithmetic is exact:
// 1 GB/s = 1 ns per byte, no header overhead, 1 us software overhead.
func testPartCfg() Config {
	return Config{
		Latency:          2 * time.Microsecond,
		Bandwidth:        1_000_000_000,
		RPCOverhead:      time.Microsecond,
		MsgOverheadBytes: 0,
	}
}

// newTestPartition builds a ParKernel with one Fabric per shard and
// nodes 0..nodes-1 on each.
func newTestPartition(seed int64, shards, nodes int, cfg Config) (*sim.ParKernel, *Partition) {
	pk := sim.NewParKernel(seed, shards, sim.Time(cfg.Latency.Nanoseconds()))
	fabrics := make([]*Fabric, shards)
	for s := 0; s < shards; s++ {
		fabrics[s] = New(pk.Shard(s), cfg)
		for n := 0; n < nodes; n++ {
			fabrics[s].AddNode(NodeID(n))
		}
	}
	return pk, NewPartition(pk, fabrics)
}

// Same-shard calls through the Partition must behave exactly like calls
// on the shard's own Fabric: same reply, same elapsed time, and no
// cross-shard machinery engaged.
func TestPartitionSameShardDelegates(t *testing.T) {
	cfg := testPartCfg()

	// Reference: the identical call on a plain single fabric.
	refK := sim.NewKernel(1)
	defer refK.Close()
	refF := New(refK, cfg)
	refF.AddNode(0)
	refF.AddNode(1)
	refF.Node(1).HandleFast("echo", func(req Message) (Message, error) { return req, nil })
	var refElapsed sim.Time
	refK.Spawn("client", func(p *sim.Proc) {
		start := refK.Now()
		if _, err := refF.Call(p, 0, 1, "echo", Message{Bytes: 1000}); err != nil {
			t.Errorf("reference call: %v", err)
		}
		refElapsed = refK.Now() - start
	})
	refK.Run()

	pk, pt := newTestPartition(1, 2, 2, cfg)
	defer pk.Close()
	pt.fabrics[0].Node(1).HandleFast("echo", func(req Message) (Message, error) { return req, nil })
	var elapsed sim.Time
	pk.Shard(0).Spawn("client", func(p *sim.Proc) {
		start := pk.Shard(0).Now()
		rep, err := pt.Call(p, ShardNode{0, 0}, ShardNode{0, 1}, "echo", Message{Bytes: 1000})
		if err != nil {
			t.Errorf("partition same-shard call: %v", err)
		}
		if rep.Bytes != 1000 {
			t.Errorf("reply bytes = %d, want 1000", rep.Bytes)
		}
		elapsed = pk.Shard(0).Now() - start
	})
	pk.Run()

	if elapsed != refElapsed {
		t.Errorf("same-shard call through partition took %v, plain fabric took %v", elapsed, refElapsed)
	}
	if got := pt.CrossCalls.Value(); got != 0 {
		t.Errorf("CrossCalls = %d after same-shard call, want 0", got)
	}
	if got := pt.CrossBytes.Value(); got != 0 {
		t.Errorf("CrossBytes = %d after same-shard call, want 0", got)
	}
}

// A cross-shard fast-handler round trip follows the documented model:
// overhead + tx/rx of the request + fast handler + tx/rx of the reply +
// one propagation latency each way.
func TestPartitionCrossShardLatencyModel(t *testing.T) {
	cfg := testPartCfg()
	pk, pt := newTestPartition(7, 2, 1, cfg)
	defer pk.Close()

	pt.fabrics[1].Node(0).HandleFast("get", func(req Message) (Message, error) {
		return Message{Payload: "value", Bytes: 500}, nil
	})

	// 1us overhead + (1us tx + 1us rx) request + (0.5us tx + 0.5us rx)
	// reply + 2 * 2us propagation = 8us.
	const want = 8 * sim.Microsecond
	var elapsed sim.Time
	pk.Shard(0).Spawn("client", func(p *sim.Proc) {
		start := pk.Shard(0).Now()
		rep, err := pt.Call(p, ShardNode{0, 0}, ShardNode{1, 0}, "get", Message{Bytes: 1000})
		if err != nil {
			t.Errorf("cross-shard call: %v", err)
		}
		if rep.Payload != "value" || rep.Bytes != 500 {
			t.Errorf("reply = %+v, want value/500", rep)
		}
		elapsed = pk.Shard(0).Now() - start
	})
	pk.Run()

	if elapsed != want {
		t.Errorf("cross-shard round trip took %v, want %v", elapsed, want)
	}
	if got := pt.CrossCalls.Value(); got != 1 {
		t.Errorf("CrossCalls = %d, want 1", got)
	}
	if got := pt.CrossBytes.Value(); got != 1500 {
		t.Errorf("CrossBytes = %d, want 1500 (request 1000 + reply 500)", got)
	}
	tx := pt.fabrics[0].Node(0).TxBytes.Value()
	rx := pt.fabrics[1].Node(0).RxBytes.Value()
	if tx != 1000 || rx != 1000 {
		t.Errorf("request NIC charges tx=%d rx=%d, want 1000/1000", tx, rx)
	}
}

// When the destination's fast handler declines with ErrWouldBlock, the
// blocking handler must run on the destination shard in a real process.
func TestPartitionCrossShardBlockingFallback(t *testing.T) {
	cfg := testPartCfg()
	pk, pt := newTestPartition(3, 2, 1, cfg)
	defer pk.Close()

	fastTried := false
	dst := pt.fabrics[1].Node(0)
	dst.HandleFast("work", func(req Message) (Message, error) {
		fastTried = true
		return Message{}, ErrWouldBlock
	})
	dst.Handle("work", func(hp *sim.Proc, req Message) (Message, error) {
		hp.Sleep(3 * time.Microsecond)
		return Message{Payload: "done", Bytes: 500}, nil
	})

	const want = 11 * sim.Microsecond // fast-path 8us + 3us blocking work
	var elapsed sim.Time
	pk.Shard(0).Spawn("client", func(p *sim.Proc) {
		start := pk.Shard(0).Now()
		rep, err := pt.Call(p, ShardNode{0, 0}, ShardNode{1, 0}, "work", Message{Bytes: 1000})
		if err != nil {
			t.Errorf("cross-shard blocking call: %v", err)
		}
		if rep.Payload != "done" {
			t.Errorf("reply payload = %v, want done", rep.Payload)
		}
		elapsed = pk.Shard(0).Now() - start
	})
	pk.Run()

	if !fastTried {
		t.Error("fast handler was never offered the request")
	}
	if elapsed != want {
		t.Errorf("blocking cross-shard round trip took %v, want %v", elapsed, want)
	}
	if got := pt.fabrics[1].FastCalls.Value(); got != 0 {
		t.Errorf("FastCalls = %d after ErrWouldBlock fallback, want 0", got)
	}
}

// Cross-shard error paths must resolve the caller with the canonical
// sentinel errors, never hang it.
func TestPartitionCrossShardErrors(t *testing.T) {
	cfg := testPartCfg()
	pk, pt := newTestPartition(11, 3, 2, cfg)
	defer pk.Close()

	pt.fabrics[2].Node(1).SetDown(true)
	pt.fabrics[1].Node(0).HandleFast("only", func(req Message) (Message, error) { return req, nil })

	pk.Shard(0).Spawn("client", func(p *sim.Proc) {
		if _, err := pt.Call(p, ShardNode{0, 0}, ShardNode{1, 7}, "only", Message{}); !errors.Is(err, ErrNoSuchNode) {
			t.Errorf("unknown node: err = %v, want ErrNoSuchNode", err)
		}
		if _, err := pt.Call(p, ShardNode{0, 0}, ShardNode{2, 1}, "only", Message{}); !errors.Is(err, ErrNodeDown) {
			t.Errorf("down node: err = %v, want ErrNodeDown", err)
		}
		if _, err := pt.Call(p, ShardNode{0, 0}, ShardNode{1, 0}, "missing", Message{}); !errors.Is(err, ErrNoHandler) {
			t.Errorf("missing handler: err = %v, want ErrNoHandler", err)
		}
		if _, err := pt.Call(p, ShardNode{0, 0}, ShardNode{9, 0}, "only", Message{}); !errors.Is(err, ErrNoSuchNode) {
			t.Errorf("shard out of range: err = %v, want ErrNoSuchNode", err)
		}
	})
	pk.Run()
}

// A cross-shard call whose handler outlives the source fabric's
// deadline resolves as ErrTimeout exactly when the deadline fires:
// overhead + CallTimeout after the call.
func TestPartitionCrossShardDeadline(t *testing.T) {
	cfg := testPartCfg()
	cfg.CallTimeout = 50 * time.Microsecond
	pk, pt := newTestPartition(5, 2, 1, cfg)
	defer pk.Close()
	pt.fabrics[1].Node(0).Handle("slow", func(hp *sim.Proc, req Message) (Message, error) {
		hp.Sleep(100 * time.Microsecond)
		return req, nil
	})

	pk.Shard(0).Spawn("client", func(p *sim.Proc) {
		start := pk.Shard(0).Now()
		_, err := pt.Call(p, ShardNode{0, 0}, ShardNode{1, 0}, "slow", Message{Bytes: 100})
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if got, want := pk.Shard(0).Now()-start, 51*sim.Microsecond; got != want {
			t.Errorf("deadline resolution after %v, want %v", got, want)
		}
	})
	pk.Run()

	if got := pt.CrossTimeouts.Value(); got != 1 {
		t.Errorf("CrossTimeouts = %d, want 1", got)
	}
	if got := pt.CrossCalls.Value(); got != 0 {
		t.Errorf("CrossCalls = %d, want 0", got)
	}
}

// partitionTrafficRun drives a mixed intra/cross-shard workload and
// returns per-shard transcripts plus the partition counters. Everything
// in the transcript is written only from the owning shard's context.
func partitionTrafficRun(t *testing.T, seed int64, workers int) ([][]string, []int64) {
	t.Helper()
	const shards = 4
	cfg := testPartCfg()
	cfg.CallTimeout = 40 * time.Microsecond
	pk, pt := newTestPartition(seed, shards, 2, cfg)
	defer pk.Close()
	pk.SetWorkers(workers)

	for s := 0; s < shards; s++ {
		s := s
		srv := pt.fabrics[s].Node(1)
		srv.HandleFast("echo", func(req Message) (Message, error) {
			return Message{Payload: req.Payload, Bytes: req.Bytes / 2}, nil
		})
		srv.Handle("work", func(hp *sim.Proc, req Message) (Message, error) {
			hp.Sleep(time.Duration(1+s) * time.Microsecond)
			return Message{Bytes: 200}, nil
		})
	}
	logs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		s := s
		k := pk.Shard(s)
		k.Spawn("client", func(p *sim.Proc) {
			rng := k.Rand()
			for i := 0; i < 40; i++ {
				target := ShardNode{s, 1}
				method := "echo"
				if i%3 == 0 {
					target = ShardNode{(s + 1) % shards, 1}
				}
				if i%5 == 0 {
					method = "work"
				}
				bytes := int64(100 + rng.Intn(900))
				rep, err := pt.Call(p, ShardNode{s, 0}, target, method, Message{Bytes: bytes})
				logs[s] = append(logs[s], fmt.Sprintf("%v %d->%v %s req=%d rep=%d err=%v",
					k.Now(), s, target, method, bytes, rep.Bytes, err))
			}
		})
	}
	pk.Run()

	counters := []int64{
		pt.CrossCalls.Value(), pt.CrossBytes.Value(),
		pt.CrossTimeouts.Value(),
	}
	for s := 0; s < shards; s++ {
		counters = append(counters, int64(pk.Shard(s).EventsProcessed()))
	}
	return logs, counters
}

// The same seed must produce byte-identical transcripts and counters at
// every worker count: SetWorkers bounds only an isolated kernel's pass,
// so a linked partition runs the same whatever it is set to.
func TestPartitionDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		baseLogs, baseCounters := partitionTrafficRun(t, seed, 1)
		total := 0
		for _, l := range baseLogs {
			total += len(l)
		}
		if total != 4*40 {
			t.Fatalf("seed %d: %d transcript lines, want 160", seed, total)
		}
		for _, workers := range []int{2, 4, 8} {
			logs, counters := partitionTrafficRun(t, seed, workers)
			if !reflect.DeepEqual(logs, baseLogs) {
				t.Errorf("seed %d: transcripts differ between workers=1 and workers=%d", seed, workers)
			}
			if !reflect.DeepEqual(counters, baseCounters) {
				t.Errorf("seed %d: counters differ between workers=1 and workers=%d: %v vs %v",
					seed, workers, baseCounters, counters)
			}
		}
	}
}

// NewPartition must refuse a fabric whose propagation latency is below
// the kernel's lookahead window — that combination breaks the
// conservative synchronization invariant.
func TestPartitionLookaheadValidation(t *testing.T) {
	pk := sim.NewParKernel(1, 2, 2*sim.Microsecond)
	defer pk.Close()
	cfg := testPartCfg()
	cfg.Latency = time.Microsecond // below the 2us lookahead
	fabrics := []*Fabric{New(pk.Shard(0), cfg), New(pk.Shard(1), cfg)}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPartition accepted latency below lookahead")
		}
	}()
	NewPartition(pk, fabrics)
}
