// Quickstart: a two-machine Quicksand system with a sharded map and a
// distributed thread pool.
//
// It demonstrates the core workflow: build a System over machine
// shapes, start the scheduler, create sharded data and elastic
// compute, drive them from a simulated process, and read the results —
// all in deterministic virtual time.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtp"
	"repro/internal/sharded"
	"repro/internal/sim"
)

func run(w io.Writer) {
	// Two machines: one CPU-rich, one memory-rich. Quicksand will use
	// each for what it has.
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 16, MemBytes: 1 << 30}, // m0: cores
		{Cores: 2, MemBytes: 8 << 30},  // m1: memory
	})
	sys.Start()

	// A sharded vector of records: shards are memory proclets, placed
	// where memory is free (mostly m1).
	vec, err := sharded.NewVector[int](sys, "records", sharded.Options{
		MaxShardBytes: 4 << 20,
		AutoAdapt:     true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A distributed thread pool: compute proclets placed where cores
	// are free (mostly m0).
	pool, err := sys.NewPool("workers", 2, 4, 8)
	if err != nil {
		log.Fatal(err)
	}

	var sum int
	sys.K.Spawn("driver", func(p *sim.Proc) {
		// Load 10k records of 64 KiB each (~640 MiB, too big for m0).
		for i := 0; i < 10_000; i++ {
			if err := vec.PushBack(p, 0, i, 64<<10); err != nil {
				log.Fatal(err)
			}
		}
		// Parallel sum with per-record compute; iterator prefetch
		// streams remote shards behind the computation.
		start := p.Now()
		total, err := dtp.ReduceVec(p, pool, vec, 64,
			func(tc *core.TaskCtx, v int) int {
				tc.Compute(50 * time.Microsecond)
				return v
			},
			func(a, b int) int { return a + b }, 0)
		if err != nil {
			log.Fatal(err)
		}
		sum = total
		fmt.Fprintf(w, "reduced %d records in %v of virtual time\n", vec.Len(), p.Now().Sub(start))
		sys.K.Stop() // the scheduler's control loops run forever; end the simulation here
	})
	sys.K.Run()

	fmt.Fprintf(w, "sum = %d (want %d)\n", sum, 10_000*9_999/2)
	fmt.Fprintf(w, "vector shards: %d (splits=%d)\n", vec.NumShards(), vec.Splits)
	for _, m := range sys.Cluster.Machines() {
		fmt.Fprintf(w, "m%d: %4.0f MiB resident, %.2f core-seconds executed\n",
			m.ID, float64(m.MemUsed())/(1<<20), m.CoreSeconds)
	}
	fmt.Fprintf(w, "migrations: %d (mean %.3f ms)\n",
		sys.Runtime.Migrations.Value(), sys.Runtime.MigrationLatency.Mean()*1000)
}

func main() { run(os.Stdout) }
