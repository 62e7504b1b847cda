// Package workload provides the experiment drivers for the Quicksand
// reproduction: the phased high-priority antagonist from the paper's
// motivating experiment (Figure 1), the synthetic image corpus and
// preprocessing kernel behind the DNN-training case study (Figure 2),
// and the emulated GPU pool whose availability varies over time
// (Figure 3). The paper itself emulated GPUs "by adding a delay to
// consume data from the queue"; the GPU pool here does exactly that.
package workload

import (
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sharded"
	"repro/internal/sim"
)

// Antagonist is a high-priority, latency-critical application whose
// CPU use follows a square wave: for Busy out of every Period it
// consumes Cores cores (modeled as a capacity reservation, which is
// exactly how a high-priority app affects best-effort work), then
// releases them.
//
// With Jitter > 0 each cycle's busy-window start shifts by a uniform
// ±Jitter drawn from the injected Rng, desynchronizing a fleet of
// antagonists the way real latency-critical apps desynchronize. The RNG
// is always injected — never package-global — so a partitioned run that
// seeds one RNG per shard replays the exact same interference pattern
// at any worker count.
type Antagonist struct {
	Machine *cluster.Machine
	Period  time.Duration
	Busy    time.Duration
	Offset  time.Duration // phase shift of the busy window
	Cores   float64
	Jitter  time.Duration // per-cycle uniform start jitter, 0 = none
	Rng     *rand.Rand    // required when Jitter > 0

	stopped bool
}

// Start begins the square wave at Offset. Before Offset the antagonist
// is idle.
func (a *Antagonist) Start(k *sim.Kernel) {
	if a.Busy > a.Period {
		panic("workload: antagonist busy window exceeds period")
	}
	if a.Jitter < 0 || a.Jitter > (a.Period-a.Busy)/2 {
		panic("workload: antagonist jitter must be in [0, (period-busy)/2]")
	}
	if a.Jitter > 0 && a.Rng == nil {
		panic("workload: jittered antagonist needs an injected *rand.Rand")
	}
	// The callbacks are bound once: a period schedules them, it does not
	// build them.
	release := func() { a.Machine.SetReserved(0) }
	busy := func() {
		if a.stopped {
			return
		}
		a.Machine.SetReserved(a.Cores)
		k.After(a.Busy, release)
	}
	var cycle func()
	at := sim.Time(0).Add(a.Offset)
	cycle = func() {
		if a.stopped {
			a.Machine.SetReserved(0)
			return
		}
		if a.Jitter > 0 {
			// Uniform in [0, 2*Jitter): keeps the window inside the period.
			k.Schedule(k.Now().Add(time.Duration(a.Rng.Int63n(2*int64(a.Jitter)))), busy)
		} else {
			busy()
		}
		at = at.Add(a.Period)
		k.Schedule(at, cycle)
	}
	k.Schedule(at, cycle)
}

// Stop ends the square wave; the reservation is released at the next
// transition.
func (a *Antagonist) Stop() { a.stopped = true }

// Image is one synthetic input image: its encoded size and the CPU
// time its preprocessing (decode, clean, augment) costs. Figure 2
// depends only on these two quantities, not on pixel contents.
type Image struct {
	Idx   int
	Bytes int64
	CPU   time.Duration
}

// GenImages generates a deterministic corpus of n images whose sizes
// and CPU costs vary uniformly by ±spread around the means, with CPU
// cost correlated to size (bigger images decode slower).
func GenImages(rng *rand.Rand, n int, meanBytes int64, meanCPU time.Duration, spread float64) []Image {
	imgs := make([]Image, n)
	for i := range imgs {
		f := 1 + float64(spread*(2*float64(rng.Float64())-1))
		imgs[i] = Image{
			Idx:   i,
			Bytes: int64(float64(meanBytes) * f),
			CPU:   time.Duration(float64(meanCPU) * f),
		}
	}
	return imgs
}

// TotalCPU sums the corpus's preprocessing cost in core-seconds.
func TotalCPU(imgs []Image) float64 {
	var sum float64
	for _, im := range imgs {
		sum += im.CPU.Seconds()
	}
	return sum
}

// TotalBytes sums the corpus's encoded size.
func TotalBytes(imgs []Image) int64 {
	var sum int64
	for _, im := range imgs {
		sum += im.Bytes
	}
	return sum
}

// Batch is a preprocessed minibatch flowing from the CPU stage to the
// GPU stage through the sharded queue. It carries nothing: the queue
// accounts its size, and a GPU only needs one to be there.
type Batch struct{}

// GPUPool emulates a set of training GPUs attached to one machine:
// each active GPU repeatedly pops a batch from the queue and spends
// PerBatch of GPU time on it. The number of active GPUs can change at
// runtime (spot GPUs appearing and disappearing, Figure 3).
type GPUPool struct {
	Queue    *sharded.Queue[Batch]
	Machine  cluster.MachineID
	PerBatch time.Duration
	Poll     time.Duration // starved-GPU retry interval

	active  int
	maxGPUs int
	stopped bool

	// Consumed counts batches trained.
	Consumed metrics.Counter
	// ActiveSeries records the active-GPU count over time.
	ActiveSeries *metrics.TimeSeries
	// busyNs accumulates GPU-busy time for utilization accounting.
	busyNs int64
}

// NewGPUPool creates a pool of maxGPUs emulated GPUs, initially all
// active. Call Start to launch the consumer processes.
func NewGPUPool(q *sharded.Queue[Batch], machine cluster.MachineID, perBatch time.Duration, maxGPUs int) *GPUPool {
	return &GPUPool{
		Queue:        q,
		Machine:      machine,
		PerBatch:     perBatch,
		Poll:         100 * time.Microsecond,
		active:       maxGPUs,
		maxGPUs:      maxGPUs,
		ActiveSeries: metrics.NewTimeSeries("gpus.active"),
	}
}

// Start launches one consumer process per GPU slot.
func (g *GPUPool) Start(k *sim.Kernel) {
	g.ActiveSeries.Add(k.Now(), float64(g.active))
	for i := 0; i < g.maxGPUs; i++ {
		k.Spawn("gpu", func(p *sim.Proc) { g.gpuLoop(p, i) })
	}
}

func (g *GPUPool) gpuLoop(p *sim.Proc, slot int) {
	for !g.stopped {
		if slot >= g.active {
			// Deactivated (spot GPU reclaimed): idle until reactivated.
			p.Sleep(g.Poll * 5)
			continue
		}
		_, ok, err := g.Queue.TryPop(p, g.Machine)
		if err != nil {
			return
		}
		if !ok {
			p.Sleep(g.Poll)
			continue
		}
		p.Sleep(g.PerBatch)
		g.busyNs += int64(g.PerBatch)
		g.Consumed.Inc()
	}
}

// SetActive changes how many GPUs are live.
func (g *GPUPool) SetActive(k *sim.Kernel, n int) {
	if n < 0 || n > g.maxGPUs {
		panic("workload: active GPU count out of range")
	}
	g.active = n
	g.ActiveSeries.Add(k.Now(), float64(n))
}

// Active returns the live GPU count.
func (g *GPUPool) Active() int { return g.active }

// Stop terminates the consumer processes at their next poll.
func (g *GPUPool) Stop() { g.stopped = true }

// Toggle flips fn between two levels every half-period, starting with
// `a` now — the Figure 3 availability trace (4 and 8 GPUs every
// 200 ms).
func Toggle(k *sim.Kernel, halfPeriod time.Duration, a, b int, until sim.Time, fn func(n int)) {
	level := a
	var flip func()
	at := k.Now()
	flip = func() {
		fn(level)
		if level == a {
			level = b
		} else {
			level = a
		}
		at = at.Add(halfPeriod)
		if at <= until {
			k.Schedule(at, flip)
		}
	}
	k.Schedule(at, flip)
}
