// Flatstore: storage resource proclets and the flat storage
// abstraction (§3.1/§3.2).
//
// Fine-grained storage proclets spread across machines combine their
// capacity and IOPS into one namespace. Eight parallel clients hammer
// the store; compare aggregate throughput against routing everything
// through a single device slice.
//
//	go run ./examples/flatstore
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

func measure(nProclets int) (ops int64, elapsed time.Duration) {
	sys := core.NewSystem(core.DefaultConfig(), []cluster.MachineConfig{
		{Cores: 8, MemBytes: 4 << 30},
		{Cores: 8, MemBytes: 4 << 30},
	})
	dev := storage.DeviceConfig{
		CapacityBytes: 8 << 30,
		IOPS:          50_000,
	}
	flat, err := storage.NewFlat(sys, "objects", nProclets, dev)
	if err != nil {
		log.Fatal(err)
	}

	const objects = 256
	const clients = 8
	const opsPerClient = 400
	var done sim.Time
	var wg sim.WaitGroup
	sys.K.Spawn("setup", func(p *sim.Proc) {
		for i := 0; i < objects; i++ {
			if err := flat.Write(p, 0, fmt.Sprintf("obj-%04d", i), nil, 64<<10); err != nil {
				log.Fatal(err)
			}
		}
		start := p.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			sys.K.Spawn("client", func(cp *sim.Proc) {
				defer wg.Done()
				for i := 0; i < opsPerClient; i++ {
					key := fmt.Sprintf("obj-%04d", (c*131+i*17)%objects)
					if _, err := flat.Read(cp, cluster.MachineID(c%2), key); err != nil {
						log.Fatal(err)
					}
				}
			})
		}
		wg.Wait(p)
		done = p.Now() - sim.Time(start)
		_ = start
	})
	sys.K.Run()
	return flat.TotalOps(), time.Duration(done)
}

func run(w io.Writer) {
	for _, n := range []int{1, 4, 16} {
		ops, elapsed := measure(n)
		fmt.Fprintf(w, "%2d storage proclets: %5d ops in %8v  (%8.0f ops/s aggregate)\n",
			n, ops, elapsed.Round(time.Microsecond), float64(3200)/elapsed.Seconds())
	}
	fmt.Fprintln(w, "\nspreading fine-grained storage proclets combines capacity and IOPS (§3.2).")
}

func main() { run(os.Stdout) }
