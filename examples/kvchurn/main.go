// Kvchurn: adaptive splitting and merging (§3.3) on a sharded map.
//
// Insert waves grow shards past the migration-latency budget, forcing
// splits; delete waves empty them out, and the adaptation loop merges
// adjacent underfull shards back together — the paper's answer to hash
// tables that decay into many sparse memory proclets.
//
//	go run ./examples/kvchurn
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/sim"
)

func run(w io.Writer) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 2 << 30},
		{Cores: 8, MemBytes: 2 << 30},
	})
	sys.Start()

	kv, err := sharded.NewMap[string, []byte](sys, "kv", sharded.Options{
		MaxShardBytes: 2 << 20, // 2 MiB shards keep migration < ~200 us
		AutoAdapt:     true,
	})
	if err != nil {
		log.Fatal(err)
	}

	report := func(phase string, p *sim.Proc) {
		var bytes int64
		for _, mp := range kv.Shards() {
			bytes += mp.HeapBytes()
		}
		fmt.Fprintf(w, "%-22s t=%-8v keys=%-6d shards=%-3d resident=%.1f MiB (splits=%d merges=%d)\n",
			phase, p.Now(), kv.Len(), kv.NumShards(), float64(bytes)/(1<<20), kv.Splits, kv.Merges)
	}

	sys.K.Spawn("churn", func(p *sim.Proc) {
		key := func(wave, i int) string { return fmt.Sprintf("w%d/k%06d", wave, i) }
		for wave := 0; wave < 3; wave++ {
			// Insert wave: 1500 x 8 KiB values (~12 MiB).
			for i := 0; i < 1500; i++ {
				if err := kv.Put(p, 0, key(wave, i), make([]byte, 0), 8<<10); err != nil {
					log.Fatal(err)
				}
			}
			report(fmt.Sprintf("after insert wave %d", wave), p)

			// Delete wave: remove 95% of the keys.
			for i := 0; i < 1425; i++ {
				if err := kv.Delete(p, 0, key(wave, i)); err != nil {
					log.Fatal(err)
				}
			}
			// Give the adaptation loop time to merge.
			p.Sleep(20 * time.Millisecond)
			report(fmt.Sprintf("after delete wave %d", wave), p)
		}

		// Survivors must still be readable through every restructure.
		missing := 0
		for wave := 0; wave < 3; wave++ {
			for i := 1425; i < 1500; i++ {
				if _, err := kv.Get(p, 0, key(wave, i)); err != nil {
					missing++
				}
			}
		}
		fmt.Fprintf(w, "\nsurvivor check: %d missing of %d expected keys\n", missing, 3*75)
		sys.K.Stop() // the scheduler's control loops run forever; end the simulation here
	})
	sys.K.Run()

	for _, m := range sys.Cluster.Machines() {
		fmt.Fprintf(w, "m%d resident at end: %.1f MiB\n", m.ID, float64(m.MemUsed())/(1<<20))
	}
}

func main() { run(os.Stdout) }
