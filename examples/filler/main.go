// Filler: the paper's §2 motivating experiment.
//
// Two machines each run a high-priority application that alternates
// every 10 ms between consuming all cores and none, anti-phased. A
// best-effort filler built from small compute proclets chases the idle
// windows: when CPU vanishes on one machine, the fast scheduler path
// migrates the filler to the other machine in well under a
// millisecond.
//
//	go run ./examples/filler
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func run(w io.Writer) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 4 << 30},
		{Cores: 8, MemBytes: 4 << 30},
	})
	sys.Start()

	// Anti-phased 10 ms square waves of high-priority load.
	period := 20 * time.Millisecond
	for i, m := range sys.Cluster.Machines() {
		a := &workload.Antagonist{Machine: m, Period: period, Busy: period / 2,
			Offset: time.Duration(i) * period / 2, Cores: m.Cores()}
		a.Start(sys.K)
	}

	// The filler: 8 single-worker compute proclets doing 50 us units.
	pool, err := sys.NewPool("filler", 1, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	horizon := sim.Time(200 * time.Millisecond)
	goodput := [2]metrics.BucketSeries{
		metrics.NewBucketSeries(time.Millisecond, horizon),
		metrics.NewBucketSeries(time.Millisecond, horizon),
	}
	// A unit is 50 us of compute, then a count and the next unit: nothing
	// after the compute blocks, so RunCompute carries it as data and the
	// count runs in kernel context.
	var count core.TaskFn
	feed := func(cp *core.ComputeProclet) {
		cp.RunCompute(50*time.Microsecond, count)
	}
	count = func(tc *core.TaskCtx) {
		goodput[tc.Machine()].Add(sys.K.Now(), 1)
		feed(tc.ComputeProclet())
	}
	for _, m := range pool.Members() {
		feed(m)
		feed(m)
	}

	sys.K.RunUntil(horizon)

	// Report: one machine's worth of cores is always idle, so ideal
	// goodput is 8 cores / 50 us = 160 units per ms.
	const ideal = 160.0
	achieved := float64(goodput[0].Sum(20, 200) + goodput[1].Sum(20, 200))
	fmt.Fprintf(w, "filler goodput: %.1f%% of one full machine\n", 100*achieved/(ideal*180))
	fmt.Fprintf(w, "migrations: %d, mean latency %.3f ms, max %.3f ms\n",
		sys.Runtime.Migrations.Value(),
		sys.Runtime.MigrationLatency.Mean()*1000,
		sys.Runtime.MigrationLatency.Max()*1000)

	// Timeline excerpt around one antagonist flip (t = 100 ms):
	fmt.Fprintln(w, "\nper-machine goodput [units/ms] around the 100 ms flip:")
	fmt.Fprintln(w, "  t[ms]   m0    m1")
	for b := 96; b < 106; b++ {
		fmt.Fprintf(w, "  %5d %5d %5d\n", b, goodput[0].Sum(b, b+1), goodput[1].Sum(b, b+1))
	}
}

func main() { run(os.Stdout) }
