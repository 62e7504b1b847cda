package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// buildMixedWorkload populates k with a representative event mix:
// processes that sleep and synchronize, timers, same-instant chains.
// It returns a pointer to the log the workload appends to.
func buildMixedWorkload(k *Kernel) *[]string {
	log := &[]string{}
	var mu Mutex
	var wg WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer wg.Done()
			for step := 0; step < 5; step++ {
				p.Sleep(time.Duration(1+i) * time.Microsecond)
				mu.Lock(p)
				*log = append(*log, fmt.Sprintf("p%d step%d @%v r%d", i, step, p.Now(), k.Rand().Intn(100)))
				mu.Unlock()
				p.Yield()
			}
		})
	}
	k.Every(2*Microsecond, 3*time.Microsecond, func() bool {
		*log = append(*log, fmt.Sprintf("tick @%v", k.Now()))
		return k.Now() < 40*Microsecond
	})
	return log
}

// A single-shard ParKernel must reduce exactly to the sequential
// kernel: same events processed, same final time, same log, same RNG
// consumption.
func TestParKernelSingleShardReduction(t *testing.T) {
	plain := NewKernel(7)
	defer plain.Close()
	plainLog := buildMixedWorkload(plain)
	plainEnd := plain.Run()

	pk := NewParKernel(7, 1, 2*Microsecond)
	defer pk.Close()
	parLog := buildMixedWorkload(pk.Shard(0))
	parEnd := pk.Run()

	if plainEnd != parEnd {
		t.Fatalf("final time: plain %v vs par %v", plainEnd, parEnd)
	}
	if plain.EventsProcessed() != pk.Shard(0).EventsProcessed() {
		t.Fatalf("events: plain %d vs par %d", plain.EventsProcessed(), pk.Shard(0).EventsProcessed())
	}
	if pk.Windows() != 0 {
		t.Fatalf("single-shard ParKernel executed %d windows, want 0 (exact reduction)", pk.Windows())
	}
	if !reflect.DeepEqual(*plainLog, *parLog) {
		t.Fatalf("logs differ:\nplain %v\npar   %v", *plainLog, *parLog)
	}
}

// parRun executes a canonical multi-shard workload with cross-shard
// ping-pong traffic and returns per-shard logs and per-shard event
// counts.
func parRun(t *testing.T, horizon Time) ([][]string, []uint64) {
	t.Helper()
	const shards = 4
	const lookahead = 2 * Microsecond
	pk := NewParKernel(3, shards, lookahead)
	defer pk.Close()

	logs := make([][]string, shards)
	for s := 0; s < shards; s++ {
		s := s
		k := pk.Shard(s)
		// Local workload: sleeping processes with RNG draws.
		for i := 0; i < 3; i++ {
			i := i
			k.Spawn(fmt.Sprintf("s%d-p%d", s, i), func(p *Proc) {
				for p.Now() < horizon {
					p.Sleep(time.Duration(1+k.Rand().Intn(5)) * time.Microsecond)
					logs[s] = append(logs[s], fmt.Sprintf("s%d p%d @%v", s, i, p.Now()))
				}
			})
		}
		// Cross-shard traffic: every 4us send a message to the next
		// shard that lands lookahead+1us later and logs there.
		k.Every(Microsecond, 4*time.Microsecond, func() bool {
			dst := (s + 1) % shards
			at := k.Now() + lookahead + Microsecond
			from := fmt.Sprintf("s%d@%v", s, k.Now())
			pk.Send(s, dst, at, func() {
				logs[dst] = append(logs[dst], fmt.Sprintf("recv %s -> s%d @%v", from, dst, pk.Shard(dst).Now()))
			})
			return k.Now() < horizon
		})
	}
	pk.RunUntil(horizon)
	if pk.CrossMessages() == 0 {
		t.Fatal("workload sent no cross-shard messages")
	}
	counts := make([]uint64, shards)
	for s := range counts {
		counts[s] = pk.Shard(s).EventsProcessed()
	}
	return logs, counts
}

// The same seed must produce byte-identical per-shard behaviour on
// every run: window boundaries, shard order and the mailbox merge
// depend on nothing but the shards' queues.
func TestParKernelRerunIsIdentical(t *testing.T) {
	const horizon = 120 * Microsecond
	logs, counts := parRun(t, horizon)
	logs2, counts2 := parRun(t, horizon)
	if !reflect.DeepEqual(logs, logs2) || !reflect.DeepEqual(counts, counts2) {
		t.Fatal("two runs of one seed differ")
	}
}

// Kernel.Every must reschedule seamlessly across window barriers: a
// periodic timer whose period is not a multiple of the lookahead window
// ticks at exactly the arithmetic sequence of times on every shard.
func TestParKernelEveryAcrossWindows(t *testing.T) {
	const lookahead = 2 * Microsecond
	const horizon = 50 * Microsecond
	want := func() []Time {
		var ts []Time
		// 700ns period deliberately misaligned with the 2us window.
		for at := Time(500); at <= horizon; at += 700 {
			ts = append(ts, at)
		}
		return ts
	}()

	pk := NewParKernel(9, 3, lookahead)
	defer pk.Close()
	got := make([][]Time, pk.NumShards())
	for s := 0; s < pk.NumShards(); s++ {
		s := s
		k := pk.Shard(s)
		k.Every(500, 700*time.Nanosecond, func() bool {
			got[s] = append(got[s], k.Now())
			return true
		})
		// Keep cross traffic flowing so windows are exercised.
		if s > 0 {
			k.Every(Microsecond, 5*time.Microsecond, func() bool {
				pk.Send(s, 0, k.Now()+lookahead, func() {})
				return true
			})
		}
	}
	pk.RunUntil(horizon)
	for s, ticks := range got {
		if !reflect.DeepEqual(ticks, want) {
			t.Fatalf("shard %d: Every ticked at %v, want %v", s, ticks[:min(len(ticks), 5)], want[:5])
		}
	}
}

// Events scheduled across shards at the identical timestamp must drain
// in a deterministic order: the destination's own events first (their
// sequence numbers predate the barrier), then mailbox messages in
// (source shard, FIFO) order — and same-instant events chained from a
// cross-shard delivery still interleave with later deliveries in exact
// global (time, seq) order via the nowq fast path.
func TestParKernelCrossShardSameInstantFIFO(t *testing.T) {
	const lookahead = 2 * Microsecond
	at := Time(10 * Microsecond)

	pk := NewParKernel(1, 3, lookahead)
	defer pk.Close()
	var order []string
	// Shard 2's own event at the contested instant, scheduled up
	// front (lowest seq at time `at`).
	pk.Shard(2).Schedule(at, func() {
		order = append(order, "local")
		// Same-instant chain through the nowq fast path: these get
		// post-barrier sequence numbers, so they must run after the
		// already-queued cross deliveries at this instant.
		pk.Shard(2).Schedule(pk.Shard(2).Now(), func() { order = append(order, "local-chain") })
	})
	// Shards 0 and 1 each send two messages to shard 2, all at the
	// same instant. Send order within a shard is FIFO; shard 0's
	// mailbox drains before shard 1's.
	for _, src := range []int{1, 0} { // deliberately registered out of order
		src := src
		pk.Shard(src).Schedule(at-lookahead, func() {
			for i := 0; i < 2; i++ {
				i := i
				pk.Send(src, 2, at, func() {
					order = append(order, fmt.Sprintf("src%d-msg%d", src, i))
				})
			}
		})
	}
	pk.RunUntil(at + Microsecond)

	want := []string{"local", "src0-msg0", "src0-msg1", "src1-msg0", "src1-msg1", "local-chain"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("same-instant drain order %v, want %v", order, want)
	}
}

// Cross-shard sends below the lookahead floor are conservative-protocol
// violations and must panic rather than silently corrupt causality.
func TestParKernelLookaheadViolationPanics(t *testing.T) {
	pk := NewParKernel(1, 2, 2*Microsecond)
	defer pk.Close()
	pk.Shard(0).Schedule(5*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("Send below lookahead did not panic")
			}
		}()
		pk.Send(0, 1, 5*Microsecond+Microsecond, func() {}) // 1us < 2us lookahead
	})
	pk.Run()
}

// RunUntil leaves every shard clock at exactly the horizon, so
// processes spawned between phases start from a common instant.
func TestParKernelRunUntilAlignsClocks(t *testing.T) {
	pk := NewParKernel(1, 3, 2*Microsecond)
	defer pk.Close()
	pk.Shard(0).Schedule(3*Microsecond, func() {})
	// Shards 1 and 2 have no events at all.
	end := pk.RunUntil(9 * Microsecond)
	if end != 9*Microsecond {
		t.Fatalf("RunUntil returned %v, want 9us", end)
	}
	for s := 0; s < 3; s++ {
		if now := pk.Shard(s).Now(); now != 9*Microsecond {
			t.Fatalf("shard %d clock %v after RunUntil, want 9us", s, now)
		}
	}
}
