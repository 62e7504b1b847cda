package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// runAblPostcopy compares pre-copy migration (today's Nu) with
// post-copy migration over coherent remote memory (the paper's §5 CXL
// direction: "we can speed up resource proclet migration by postponing
// the copying of data"). For each state size it measures the blackout
// (how long a client's invocations stall around the move) and, for
// post-copy, the time until the heap is fully resident.
func runAblPostcopy(scale Scale) (*Result, error) {
	sizes := []int64{1 << 20, 10 << 20, 64 << 20, 256 << 20}
	if scale == TestScale {
		sizes = []int64{1 << 20, 64 << 20}
	}
	res := newResult("abl-postcopy", "pre-copy vs post-copy (CXL-style) migration")
	res.addf("client pings every 100 us across the move; blackout = longest ping stall")
	res.addf("%-10s %16s %16s %16s %16s",
		"state", "pre blackout[ms]", "post blackout[ms]", "resident[ms]", "post stalls")

	for _, size := range sizes {
		type out struct {
			blackoutMs float64
			residentMs float64
			penalties  int64
		}
		run := func(lazy bool) (out, error) {
			var o out
			sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
				{Cores: 8, MemBytes: 8 << 30},
				{Cores: 8, MemBytes: 8 << 30},
			})
			defer sys.Close()
			pr, err := sys.Runtime.Spawn("svc", 0, size)
			if err != nil {
				return o, err
			}
			pr.Handle("ping", func(ctx *proclet.Ctx, arg proclet.Msg) (proclet.Msg, error) {
				return proclet.Msg{}, nil
			})
			// A client pinging continuously; the longest gap between
			// successful pings brackets the observable blackout.
			var maxGap time.Duration
			horizon := sim.Time(500 * time.Millisecond)
			sys.K.Spawn("client", func(p *sim.Proc) {
				last := p.Now()
				for p.Now() < horizon {
					if _, err := sys.Runtime.Invoke(p, 1, 0, pr.ID(), "ping", proclet.Msg{}); err == nil {
						if gap := p.Now().Sub(last); gap > maxGap {
							maxGap = gap
						}
						last = p.Now()
					}
					p.Sleep(100 * time.Microsecond)
				}
			})
			sys.K.Spawn("ctl", func(p *sim.Proc) {
				p.Sleep(10 * time.Millisecond)
				if lazy {
					err = sys.Runtime.MigrateLazy(p, pr.ID(), 1)
				} else {
					err = sys.Runtime.Migrate(p, pr.ID(), 1)
				}
			})
			sys.K.RunUntil(horizon)
			res.EventsProcessed += sys.K.EventsProcessed()
			if err != nil {
				return o, err
			}
			o.blackoutMs = float64(maxGap) / 1e6
			if lazy {
				o.residentMs = sys.Runtime.LazyResidence.Mean() * 1000
				o.penalties = sys.Runtime.LazyPenalties.Value()
			}
			return o, nil
		}
		pre, err := run(false)
		if err != nil {
			return nil, err
		}
		post, err := run(true)
		if err != nil {
			return nil, err
		}
		res.addf("%-10s %16.3f %17.3f %16.3f %16d",
			byteSize(size), pre.blackoutMs, post.blackoutMs, post.residentMs, post.penalties)
		res.set(fmt.Sprintf("pre_blackout_ms.%d", size), pre.blackoutMs)
		res.set(fmt.Sprintf("post_blackout_ms.%d", size), post.blackoutMs)
		res.set(fmt.Sprintf("resident_ms.%d", size), post.residentMs)
	}
	res.addf("shape: post-copy's blackout is flat (~fixed overhead + one ping interval) while pre-copy's")
	res.addf("grows with state; the price is a per-invocation remote penalty until the copy lands.")
	return res, nil
}
