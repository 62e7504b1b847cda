package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtp"
	"repro/internal/metrics"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fig3Cfg parameterizes the GPU-adaptation experiment: the number of
// available training GPUs toggles between gpusHi and gpusLo every
// halfPeriod; Quicksand must split/merge preprocessing compute
// proclets to keep the GPUs saturated without wasting CPU.
type fig3Cfg struct {
	gpusHi, gpusLo int
	halfPeriod     time.Duration
	horizon        sim.Time
	preprocCPU     time.Duration // CPU per batch produced
	gpuBatch       time.Duration // GPU time per batch consumed
	outBytes       int64
	maxProducers   int
}

func fig3Config(scale Scale) fig3Cfg {
	cfg := fig3Cfg{
		gpusHi:       8,
		gpusLo:       4,
		halfPeriod:   200 * time.Millisecond,
		horizon:      sim.Time(1200 * time.Millisecond),
		preprocCPU:   10 * time.Millisecond,
		gpuBatch:     5 * time.Millisecond,
		outBytes:     16 << 10,
		maxProducers: 24,
	}
	if scale == TestScale {
		cfg.horizon = sim.Time(600 * time.Millisecond)
	}
	return cfg
}

// fig3Out carries the measured series.
type fig3Out struct {
	events   uint64
	size     *metrics.TimeSeries // producer pool size over time
	active   *metrics.TimeSeries // active GPUs over time
	consumed *metrics.BucketSeries
	splits   int64
	merges   int64
}

func fig3Run(cfg fig3Cfg) (fig3Out, error) {
	var out fig3Out
	sysCfg := core.DefaultConfig() // adapts every 2 ms: one decision per tick
	machines := []cluster.MachineConfig{
		{Cores: 24, MemBytes: 16 << 30},
		{Cores: 24, MemBytes: 16 << 30},
	}
	sys := core.NewSystem(sysCfg, machines)
	defer sys.Close()

	queue, err := sharded.NewQueue[workload.Batch](sys, "batches", sharded.Options{})
	if err != nil {
		return out, err
	}
	gpus := workload.NewGPUPool(queue, 0, cfg.gpuBatch, cfg.gpusHi)
	gpus.Start(sys.K)

	// Producers start matched to the high-GPU state.
	ratio := int(float64(cfg.preprocCPU) / float64(cfg.gpuBatch))
	initial := cfg.gpusHi * ratio
	pool, err := sys.NewPool("preproc", 1, initial, 1, cfg.maxProducers)
	if err != nil {
		return out, err
	}
	// The paper's controller: on learning of a GPU change, split or
	// merge producers to match the new consumption capacity.
	ts := dtp.NewTargetScaler(pool, func() int { return gpus.Active() * ratio })
	sys.Sched.RegisterAdaptive(ts)
	sys.Start()

	// Continuous production: a fixed population of self-replacing
	// tasks, dispatched through the pool so new members get fed.
	var produce core.TaskFn
	produce = func(tc *core.TaskCtx) {
		tc.Compute(cfg.preprocCPU)
		queue.Push(tc.Proc(), tc.Machine(), workload.Batch{}, cfg.outBytes)
		tc.ComputeProclet().Run(produce)
	}
	for i := 0; i < 2*cfg.maxProducers; i++ {
		pool.Run(produce)
	}

	// The availability trace: hi <-> lo every half period.
	workload.Toggle(sys.K, cfg.halfPeriod, cfg.gpusHi, cfg.gpusLo, cfg.horizon, func(n int) {
		gpus.SetActive(sys.K, n)
	})

	// Samplers.
	out.size = metrics.NewTimeSeries("producers")
	out.consumed = metrics.NewBucketSeries(10 * time.Millisecond)
	lastConsumed := int64(0)
	sys.K.Every(0, time.Millisecond, func() bool {
		out.size.Add(sys.K.Now(), float64(pool.Size()))
		c := gpus.Consumed.Value()
		out.consumed.Add(sys.K.Now(), float64(c-lastConsumed))
		lastConsumed = c
		return sys.K.Now() < cfg.horizon
	})

	sys.K.RunUntil(cfg.horizon)
	gpus.Stop()
	out.events = sys.K.EventsProcessed()
	out.active = gpus.ActiveSeries
	out.splits = pool.Splits
	out.merges = pool.Merges
	return out, nil
}

// fig3Reactions computes, for every GPU-availability flip after t=0,
// the time until the producer pool size settles into the interval's
// steady band (within ±1 of the value it holds at the end of the
// interval, sustained for settleHold).
func fig3Reactions(cfg fig3Cfg, out fig3Out) (perFlip []float64, gpuUtil []float64) {
	const settleHoldMs = 20
	flips := out.active.Points()
	for i := 1; i < len(flips); i++ {
		start := flips[i].At
		end := cfg.horizon
		if i+1 < len(flips) {
			end = flips[i+1].At
		}
		if end-start < sim.Time(50*time.Millisecond) {
			continue
		}
		steady, ok := out.size.At(end - sim.Time(10*time.Millisecond))
		if !ok {
			continue
		}
		inBand := func(t sim.Time) bool {
			v, ok := out.size.At(t)
			return ok && math.Abs(v-steady) <= 1
		}
		react := -1.0
		for t := start; t < end; t += sim.Time(time.Millisecond) {
			if !inBand(t) {
				continue
			}
			held := true
			for h := sim.Time(0); h <= sim.Time(settleHoldMs*time.Millisecond); h += sim.Time(time.Millisecond) {
				if t+h >= end {
					break
				}
				if !inBand(t + h) {
					held = false
					break
				}
			}
			if held {
				react = float64(t-start) / float64(time.Millisecond)
				break
			}
		}
		if react < 0 {
			react = float64(end-start) / float64(time.Millisecond)
		}
		perFlip = append(perFlip, react)

		// GPU utilization over the settled part of the interval.
		settledFrom := start + sim.Time(time.Duration(react)*time.Millisecond)
		gpusActive := flips[i].Value
		capacity := gpusActive / cfg.gpuBatch.Seconds() * (end - settledFrom).Seconds()
		var used float64
		fromB := int(int64(settledFrom) / int64(10*time.Millisecond))
		toB := int(int64(end) / int64(10*time.Millisecond))
		for b := fromB; b < toB; b++ {
			used += out.consumed.Bucket(b)
		}
		if capacity > 0 {
			gpuUtil = append(gpuUtil, 100*used/capacity)
		}
	}
	return perFlip, gpuUtil
}

func runFig3(scale Scale) (*Result, error) {
	cfg := fig3Config(scale)
	out, err := fig3Run(cfg)
	if err != nil {
		return nil, err
	}
	res := newResult("fig3", "Figure 3: compute proclets track varying GPU availability")
	res.EventsProcessed = out.events
	res.addf("setup: GPUs toggle %d<->%d every %v; preprocessing %v/batch, GPU %v/batch",
		cfg.gpusHi, cfg.gpusLo, cfg.halfPeriod, cfg.preprocCPU, cfg.gpuBatch)
	reacts, utils := fig3Reactions(cfg, out)
	if len(reacts) == 0 {
		return nil, fmt.Errorf("fig3: no flips measured")
	}
	var sum, max float64
	for _, r := range reacts {
		sum += r
		if r > max {
			max = r
		}
	}
	mean := sum / float64(len(reacts))
	var usum float64
	for _, u := range utils {
		usum += u
	}
	umean := 0.0
	if len(utils) > 0 {
		umean = usum / float64(len(utils))
	}
	res.addf("flips measured: %d; splits=%d merges=%d", len(reacts), out.splits, out.merges)
	for i, r := range reacts {
		res.addf("  flip %d: settle %.0f ms", i+1, r)
	}
	res.addf("settle time: mean %.1f ms, max %.0f ms (paper: 10-15 ms)", mean, max)
	res.addf("GPU utilization after settling: %.1f%% mean", umean)
	res.set("react_mean_ms", mean)
	res.set("react_max_ms", max)
	res.set("splits", float64(out.splits))
	res.set("merges", float64(out.merges))
	res.set("gpu_util_pct", umean)
	// Plot-ready series at 1 ms resolution: producer pool size, active
	// GPUs, and consumed batches per 10 ms bucket.
	nMs := int(int64(cfg.horizon) / int64(time.Millisecond))
	producers := make([]float64, nMs)
	gpusActive := make([]float64, nMs)
	consumed := make([]float64, nMs)
	for ms := 0; ms < nMs; ms++ {
		at := sim.Time(ms) * sim.Millisecond
		res.SeriesTime = append(res.SeriesTime, float64(ms))
		producers[ms], _ = out.size.At(at)
		gpusActive[ms], _ = out.active.At(at)
		consumed[ms] = out.consumed.Bucket(ms / 10)
	}
	res.Series["producers"] = producers
	res.Series["gpus_active"] = gpusActive
	res.Series["consumed_per_10ms"] = consumed

	// Producer-count excerpt around the first flip (the paper's plot).
	res.addf("producer count timeline (1 ms samples around first flip):")
	flipAt := sim.Time(cfg.halfPeriod)
	line := "  "
	for t := flipAt - sim.Time(5*time.Millisecond); t < flipAt+sim.Time(30*time.Millisecond); t += sim.Time(5 * time.Millisecond) {
		v, _ := out.size.At(t)
		line += fmt.Sprintf("%v:%2.0f  ", t, v)
	}
	res.Lines = append(res.Lines, line)
	return res, nil
}
