package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// runAblGranularity sweeps proclet granularity at constant total filler
// capacity and state: the same 8 worker threads and 64 MiB of state
// carved into 1, 2, 4, or 8 proclets. Coarser proclets migrate slower
// and move in bigger indivisible chunks, losing more of each 10 ms
// window — the paper's core argument for granular proclets (§2:
// "fast migration is possible only for fine-grained proclets").
func runAblGranularity(scale Scale) (*Result, error) {
	base := fig1Config(scale)
	const totalWorkers = 8
	const totalState = int64(64 << 20)
	res := newResult("abl-granularity", "filler goodput vs proclet granularity (constant total state)")
	res.addf("total: %d workers, %s of state; figure-1 workload", totalWorkers, byteSize(totalState))
	res.addf("%-20s %14s %12s %14s", "granularity", "goodput[%ideal]", "migrations", "mig mean[ms]")
	for _, members := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.members = members
		cfg.workersPer = totalWorkers / members
		heap := totalState / int64(members)
		st, err := fig1RunWith(cfg, func(c *core.Config) {
			c.ComputeProcletHeap = heap
		})
		if err != nil {
			return nil, err
		}
		res.EventsProcessed += st.events
		label := fmt.Sprintf("%d x %dw x %s", members, cfg.workersPer, byteSize(heap))
		res.addf("%-20s %14.1f %12d %14.3f", label, st.goodputPct, st.migrations, st.migMeanMs)
		res.set(fmt.Sprintf("goodput_pct.%d", members), st.goodputPct)
		res.set(fmt.Sprintf("mig_mean_ms.%d", members), st.migMeanMs)
	}
	res.addf("shape: finer proclets migrate faster and pack better, recovering more of every window;")
	res.addf("one monolithic proclet loses several ms of each 10 ms window to its own transfer.")
	return res, nil
}

// runAblReactor sweeps the fast path's sampling period on the Figure 1
// workload — the reaction-time side of §5's 'balance between reaction
// time and quality'.
func runAblReactor(scale Scale) (*Result, error) {
	base := fig1Config(scale)
	res := newResult("abl-reactor", "filler goodput vs local reactor period")
	res.addf("%-12s %14s %12s", "period", "goodput[%ideal]", "migrations")
	periods := []time.Duration{
		100 * time.Microsecond,
		200 * time.Microsecond,
		time.Millisecond,
		5 * time.Millisecond,
		20 * time.Millisecond,
	}
	if scale == TestScale {
		periods = []time.Duration{200 * time.Microsecond, 2 * time.Millisecond, 20 * time.Millisecond}
	}
	for _, period := range periods {
		st, err := fig1RunWith(base, func(c *core.Config) {
			c.LocalPeriod = period
		})
		if err != nil {
			return nil, err
		}
		res.EventsProcessed += st.events
		res.addf("%-12v %14.1f %12d", period, st.goodputPct, st.migrations)
		res.set(fmt.Sprintf("goodput_pct.%d", period.Microseconds()), st.goodputPct)
	}
	res.addf("shape: goodput degrades as the detection period approaches the idle-window length;")
	res.addf("at 20 ms (the antagonist period) the reactor is effectively blind.")
	return res, nil
}
