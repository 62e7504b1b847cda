package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// stamp identifies the action being taken: when, after how many sequence
// numbers, and by which process (0: an event, not a process).
func (k *Kernel) stamp() eventStamp {
	st := eventStamp{at: k.now, seq: k.seq}
	if k.curr != nil {
		st.pid = k.curr.ID
	}
	return st
}

// isolatedRun is what one run of buildIsolatedMix's program produced.
type isolatedRun struct {
	logs    [][]eventStamp // per shard, every action of the program
	events  []uint64       // per shard, after the second horizon
	now     []Time
	windows uint64
}

// mixH1 and mixH2 are the two instants a run stops at: the host adds work to
// every shard at the first, and closes the kernel, mid-run, at the second.
const mixH1, mixH2 = 300 * Microsecond, 700 * Microsecond

// buildIsolatedMix populates one shard with a random program drawn from
// r, logging every action into *log. Nothing in it reaches another shard.
// It mixes sleepers that spawn children, a re-armed Timer, a bounded
// Every, daemons whose Awaits wait on Conds that timed callbacks signal,
// a group of SpawnPollers members the sleepers let go, SpawnStaged
// countdowns, and processes parked on a Cond nobody signals, which Close
// unwinds. A quarter of the shards start
// only after mixH1, or never, so their clocks move only by RunUntil's
// final alignment.
func buildIsolatedMix(k *Kernel, r *rand.Rand, log *[]eventStamp) {
	mark := func() { *log = append(*log, k.stamp()) }
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	start := Time(0)
	switch r.Intn(8) {
	case 0:
		return // an empty shard
	case 1:
		start = mixH1 + Time(us(1+r.Intn(50)))
	}
	var conds [3]Cond
	let := make([]bool, r.Intn(6))
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		k.Schedule(start, func() {
			k.Spawn("sleeper", func(p *Proc) {
				for j := 0; j < 3+k.Rand().Intn(8); j++ {
					p.Sleep(us(1 + k.Rand().Intn(60)))
					mark()
					if k.Rand().Intn(4) == 0 {
						k.Spawn("child", func(c *Proc) { c.Sleep(us(k.Rand().Intn(30))); mark() })
					}
					if k.Rand().Intn(3) == 0 {
						conds[k.Rand().Intn(len(conds))].Signal()
					}
					if len(let) > 0 && k.Rand().Intn(4) == 0 {
						let[k.Rand().Intn(len(let))] = true
					}
				}
			})
		})
	}
	var tm Timer
	fires := 0
	tm.Init(k, func(uint64) {
		mark()
		if fires++; fires < 10 {
			tm.Arm(k.Now() + Time(us(1+k.Rand().Intn(40))))
		}
	}, 0)
	first := start + Time(us(r.Intn(40)))
	k.Schedule(start, func() {
		tm.Arm(start + Time(us(50)))
		tm.Arm(first) // moved before it fires
	})
	ticks := 0
	k.Every(start+Time(us(r.Intn(20))), us(5+r.Intn(30)), func() bool {
		mark()
		if k.Rand().Intn(2) == 0 {
			conds[k.Rand().Intn(len(conds))].Broadcast()
		}
		ticks++
		return ticks < 15
	})
	for i, n := 0, r.Intn(4); i < n; i++ {
		c := &conds[r.Intn(len(conds))]
		left := 1 + r.Intn(5)
		stage := func() Wait {
			mark()
			if left--; left == 0 {
				return Resume
			}
			if k.Rand().Intn(2) == 0 {
				return On(c)
			}
			return After(us(k.Rand().Intn(25)))
		}
		k.Schedule(start, func() {
			k.Spawn("daemon", func(p *Proc) {
				p.Await(On(c), stage)
				mark()
				p.Await(After(us(3)), stage)
				mark()
			})
		})
	}
	period := us(2 + r.Intn(20))
	k.Schedule(start, func() {
		k.SpawnPollers(len(let), period, func(int) string { return "poller" },
			func(i int) bool { mark(); return let[i] || k.Now() >= start+mixH2 }, // Run ends
			func(p *Proc, i int) {
				mark()
				p.Sleep(us(k.Rand().Intn(10)))
				mark()
			})
	})
	for i, n := 0, r.Intn(3); i < n; i++ {
		left := 2 + r.Intn(4)
		k.Schedule(start+Time(us(r.Intn(100))), func() {
			k.SpawnStaged(func() string { return "staged" }, func() Wait {
				mark()
				if left--; left == 0 {
					return Resume
				}
				return After(us(k.Rand().Intn(15)))
			})
		})
	}
	var never Cond
	for i, n := 0, r.Intn(3); i < n; i++ {
		k.Schedule(start+Time(us(r.Intn(200))), func() {
			k.Spawn("stuck", func(p *Proc) {
				defer mark() // runs as Close unwinds it
				mark()
				never.Wait(p)
			})
		})
	}
}

// runIsolatedMix plays the program seed draws, on 2–6 shards: windowed
// when workers is 0, else isolated at that worker count. It runs to
// mixH1, spawns a late process on every shard at that shard's own clock,
// runs to mixH2, and closes the kernel with processes still parked.
func runIsolatedMix(seed int64, workers int) isolatedRun {
	r := rand.New(rand.NewSource(seed))
	pk := NewParKernel(seed, 2+r.Intn(5), 2*Microsecond)
	if workers > 0 {
		pk.SetWorkers(workers)
		pk.Isolate()
	}
	n := pk.NumShards()
	out := isolatedRun{logs: make([][]eventStamp, n), events: make([]uint64, n), now: make([]Time, n)}
	for s := 0; s < n; s++ {
		buildIsolatedMix(pk.Shard(s), rand.New(rand.NewSource(r.Int63())), &out.logs[s])
	}
	pk.RunUntil(mixH1)
	for s := 0; s < n; s++ {
		k, log := pk.Shard(s), &out.logs[s]
		k.Spawn("late", func(p *Proc) {
			*log = append(*log, k.stamp())
			p.Sleep(time.Duration(1+k.Rand().Intn(90)) * time.Microsecond)
			*log = append(*log, k.stamp())
		})
	}
	pk.RunUntil(mixH2)
	for s := 0; s < n; s++ {
		out.events[s], out.now[s] = pk.Shard(s).EventsProcessed(), pk.Shard(s).Now()
	}
	out.windows = pk.Windows()
	pk.Close()
	return out
}

// TestIsolatedShardsMatchWindows: an isolated ParKernel runs each shard
// to the limit in one pass, and every shard must see exactly what it saw
// windowed — same actions at the same (time, seq, pid), same event count,
// same clock — at every worker count, with no window run. It catches
// dropping RunUntil's final advanceTo (an empty or late shard's clock
// lags, and the late process starts early), dealing a shard to no worker
// or to two, and a worker count that leaks into the results.
func TestIsolatedShardsMatchWindows(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := runIsolatedMix(seed, 0)
		if want.windows == 0 {
			t.Fatalf("seed %d: the windowed reference ran no windows", seed)
		}
		for _, p := range []int{1, 2, 4} {
			got := runIsolatedMix(seed, p)
			if got.windows != 0 {
				t.Fatalf("seed %d P=%d: an isolated run crossed %d windows", seed, p, got.windows)
			}
			if !reflect.DeepEqual(got.events, want.events) || !reflect.DeepEqual(got.now, want.now) {
				t.Fatalf("seed %d P=%d: events %v at %v, windowed %v at %v", seed, p, got.events, got.now, want.events, want.now)
			}
			for s := range want.logs {
				if !reflect.DeepEqual(got.logs[s], want.logs[s]) {
					t.Fatalf("seed %d P=%d shard %d: isolated log differs from windowed\n got  %v\n want %v",
						seed, p, s, got.logs[s], want.logs[s])
				}
			}
		}
	}
}

// An isolated Run drains each shard as a sequential Kernel.Run would, and
// returns the latest of their clocks.
func TestIsolatedRunIsEachShardsRun(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pk := NewParKernel(seed, 4, 2*Microsecond)
		pk.SetWorkers(2)
		pk.Isolate()
		logs := make([][]eventStamp, 4)
		for s := range logs {
			buildIsolatedMix(pk.Shard(s), rand.New(rand.NewSource(seed*10+int64(s))), &logs[s])
		}
		end := pk.Run()
		var last Time
		for s := range logs {
			k := NewKernel(seed + int64(s)*1_000_003)
			var log []eventStamp
			buildIsolatedMix(k, rand.New(rand.NewSource(seed*10+int64(s))), &log)
			last = max(last, k.Run())
			if !reflect.DeepEqual(log, logs[s]) || k.EventsProcessed() != pk.Shard(s).EventsProcessed() {
				t.Fatalf("seed %d shard %d: isolated Run differs from the shard's own Run", seed, s)
			}
			k.Close()
		}
		if end != last || pk.Windows() != 0 {
			t.Fatalf("seed %d: Run returned %v after %d windows, want %v and none", seed, end, pk.Windows(), last)
		}
		pk.Close()
	}
}

// A cross-shard Send on an isolated kernel, and an Isolate after a window
// ran, panic and say where.
func TestIsolateMisusePanics(t *testing.T) {
	pk := NewParKernel(1, 3, 2*Microsecond)
	defer pk.Close()
	pk.Isolate()
	pk.Send(1, 1, 5*Microsecond, func() {}) // same shard: a Schedule, allowed
	var msg string
	pk.Shard(1).Schedule(3*Microsecond, func() {
		msg = mustPanic(t, func() { pk.Send(1, 2, 9*Microsecond, func() {}) })
	})
	pk.RunUntil(10 * Microsecond)
	if want := "cross-shard send 1->2 at 9µs (now 3µs) on an isolated ParKernel"; !strings.Contains(msg, want) {
		t.Errorf("Send on an isolated kernel: panic %q, want it to contain %q", msg, want)
	}

	windowed := NewParKernel(1, 2, 2*Microsecond)
	defer windowed.Close()
	windowed.Shard(0).Schedule(Microsecond, func() {})
	windowed.RunUntil(10 * Microsecond)
	msg = mustPanic(t, windowed.Isolate)
	if want := fmt.Sprintf("Isolate after %d windows ran", windowed.Windows()); !strings.Contains(msg, want) {
		t.Errorf("late Isolate: panic %q, want it to contain %q", msg, want)
	}
}
