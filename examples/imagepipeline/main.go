// Imagepipeline: the paper's §4 DNN-training case study as library
// client code.
//
// A corpus of images is ingested into a sharded vector (memory
// proclets), preprocessed by an elastic pool of compute proclets, and
// streamed through a sharded queue into an emulated GPU pool. The two
// machines are deliberately imbalanced — one has the cores, the other
// the memory — and Quicksand combines them transparently.
//
//	go run ./examples/imagepipeline
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtp"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/workload"
)

func run(w io.Writer) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 14, MemBytes: 1 << 30}, // CPU-heavy
		{Cores: 2, MemBytes: 8 << 30},  // memory-heavy
	})
	sys.Start()

	imgs := workload.GenImages(rand.New(rand.NewSource(1)), 2000, 1<<20, 8*time.Millisecond, 0.25)
	fmt.Fprintf(w, "corpus: %d images, %.2f GiB, %.1f core-seconds of preprocessing\n",
		len(imgs), float64(workload.TotalBytes(imgs))/(1<<30), workload.TotalCPU(imgs))

	vec, err := sharded.NewVector[workload.Image](sys, "images",
		sharded.Options{MaxShardBytes: 32 << 20, AutoAdapt: true})
	if err != nil {
		log.Fatal(err)
	}
	queue, err := sharded.NewQueue[workload.Batch](sys, "batches",
		sharded.Options{MaxShardBytes: 32 << 20})
	if err != nil {
		log.Fatal(err)
	}
	gpus := workload.NewGPUPool(queue, 0, time.Millisecond, 32)
	gpus.Start(sys.K)

	pool, err := sys.NewPool("preproc", 1, 16, 16)
	if err != nil {
		log.Fatal(err)
	}

	sys.K.Spawn("driver", func(p *sim.Proc) {
		for _, im := range imgs {
			if err := vec.PushBack(p, 0, im, im.Bytes); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintf(w, "loaded: %d shards; resident m0=%d MiB m1=%d MiB\n",
			vec.NumShards(),
			sys.Cluster.Machine(0).MemUsed()>>20, sys.Cluster.Machine(1).MemUsed()>>20)

		start := p.Now()
		err := dtp.ForEachVec(p, pool, vec, 8, func(tc *core.TaskCtx, idx uint64, im workload.Image) {
			tc.Compute(im.CPU) // decode + clean + augment
			queue.Push(tc.Proc(), tc.Machine(), workload.Batch{}, 64<<10)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "preprocessed %d images in %v of virtual time\n", len(imgs), p.Now().Sub(start))
		gpus.Stop()
		sys.K.Stop()
	})
	sys.K.Run()

	split := make(map[cluster.MachineID]int)
	for _, cp := range pool.Members() {
		split[cp.Location()]++
	}
	fmt.Fprintf(w, "compute proclets by machine: %v\n", split)
	fmt.Fprintf(w, "GPU batches trained: %d\n", gpus.Consumed.Value())
	fmt.Fprintf(w, "control plane: %d migrations (mean %.3f ms), %d evacuations, %d memory evictions\n",
		sys.Runtime.Migrations.Value(), sys.Runtime.MigrationLatency.Mean()*1000,
		sys.Sched.Evacuations.Value(), sys.Sched.MemEvictions.Value())
}

func main() { run(os.Stdout) }
