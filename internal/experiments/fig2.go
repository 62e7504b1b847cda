package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtp"
	"repro/internal/runpar"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// fig2Cfg parameterizes the §4 case study: preprocess an in-memory
// image corpus with a fixed total of CPU and memory, divided between
// two machines in increasingly imbalanced ways.
type fig2Cfg struct {
	images    int
	meanBytes int64
	meanCPU   time.Duration
	spread    float64
	chunk     int
	outBytes  int64 // preprocessed batch size pushed to the GPU queue
	gpus      int
	gpuBatch  time.Duration
	maxShard  int64 // 0 = system default
	rows      []fig2Row
}

type fig2Row struct {
	name     string
	machines []cluster.MachineConfig
}

func fig2Config(scale Scale) fig2Cfg {
	const GiB = 1 << 30
	if scale == TestScale {
		const MiB = 1 << 20
		return fig2Cfg{
			images:    400,
			meanBytes: 64 << 10,
			meanCPU:   2 * time.Millisecond,
			spread:    0.2,
			chunk:     8,
			outBytes:  8 << 10,
			gpus:      16,
			gpuBatch:  200 * time.Microsecond,
			maxShard:  2 * MiB,
			rows: []fig2Row{
				{"baseline", []cluster.MachineConfig{{Cores: 12, MemBytes: 96 * MiB}}},
				{"cpu-unbalanced", []cluster.MachineConfig{
					{Cores: 2, MemBytes: 48 * MiB}, {Cores: 10, MemBytes: 48 * MiB}}},
				{"mem-unbalanced", []cluster.MachineConfig{
					{Cores: 6, MemBytes: 8 * MiB}, {Cores: 6, MemBytes: 88 * MiB}}},
				{"both-unbalanced", []cluster.MachineConfig{
					{Cores: 2, MemBytes: 88 * MiB}, {Cores: 10, MemBytes: 8 * MiB}}},
			},
		}
	}
	// Paper scale: 46 cores + 13 GiB total; corpus sized so the
	// baseline lands near the paper's 26.1 s (≈1200 core-seconds).
	return fig2Cfg{
		images:    11000,
		meanBytes: 1 << 20,
		meanCPU:   109 * time.Millisecond,
		spread:    0.25,
		chunk:     8,
		outBytes:  128 << 10,
		gpus:      64,
		gpuBatch:  time.Millisecond,
		rows: []fig2Row{
			{"baseline", []cluster.MachineConfig{{Cores: 46, MemBytes: 13 * GiB}}},
			{"cpu-unbalanced", []cluster.MachineConfig{
				{Cores: 6, MemBytes: 13 * GiB / 2}, {Cores: 40, MemBytes: 13 * GiB / 2}}},
			{"mem-unbalanced", []cluster.MachineConfig{
				{Cores: 23, MemBytes: 1 * GiB}, {Cores: 23, MemBytes: 12 * GiB}}},
			{"both-unbalanced", []cluster.MachineConfig{
				{Cores: 6, MemBytes: 12 * GiB}, {Cores: 40, MemBytes: 1 * GiB}}},
		},
	}
}

// fig2Outcome reports one configuration's pipeline run.
type fig2Outcome struct {
	completion sim.Time
	shards     int
	procSplit  []int // compute proclets per machine at completion
	events     uint64
}

// fig2Pipeline runs the Quicksand preprocessing pipeline on the given
// machine set and returns the preprocessing completion time (load
// phase excluded, as in the paper's in-memory setup).
func fig2Pipeline(cfg fig2Cfg, machines []cluster.MachineConfig, imgs []workload.Image) (fig2Outcome, error) {
	var out fig2Outcome
	sysCfg := core.DefaultConfig()
	sysCfg.Seed = seeded(sysCfg.Seed)
	sys := core.NewSystem(sysCfg, machines)
	defer sys.Close()
	sys.Start()

	opts := sharded.Options{AutoAdapt: true}
	if cfg.maxShard > 0 {
		opts.MaxShardBytes = cfg.maxShard
	}
	vec, err := sharded.NewVector[workload.Image](sys, "images", opts)
	if err != nil {
		return out, err
	}
	queue, err := sharded.NewQueue[workload.Batch](sys, "batches", opts)
	if err != nil {
		return out, err
	}
	gpus := workload.NewGPUPool(queue, 0, cfg.gpuBatch, cfg.gpus)
	gpus.Start(sys.K)

	totalCores := 0
	for _, mc := range machines {
		totalCores += int(mc.Cores)
	}
	pool, err := sys.NewPool("preproc", 1, totalCores, 1, totalCores)
	if err != nil {
		return out, err
	}

	var runErr error
	done := false
	sys.K.Spawn("driver", func(p *sim.Proc) {
		// Load phase (untimed): ingest the corpus through machine 0.
		for _, im := range imgs {
			if err := vec.PushBack(p, 0, im, im.Bytes); err != nil {
				runErr = fmt.Errorf("load image %d: %w", im.Idx, err)
				return
			}
		}
		out.shards = vec.NumShards()

		// Preprocessing phase (timed).
		start := p.Now()
		err := dtp.ForEachVec(p, pool, vec, cfg.chunk, func(tc *core.TaskCtx, idx uint64, im workload.Image) {
			tc.Compute(im.CPU)
			if perr := queue.Push(tc.Proc(), tc.Machine(), workload.Batch{}, cfg.outBytes); perr != nil && runErr == nil {
				runErr = fmt.Errorf("push batch %d: %w", im.Idx, perr)
			}
		})
		if err != nil && runErr == nil {
			runErr = err
		}
		out.completion = p.Now() - start
		out.procSplit = make([]int, len(machines))
		for _, cp := range pool.Members() {
			out.procSplit[cp.Location()]++
		}
		done = true
		gpus.Stop()
		sys.K.Stop()
	})
	sys.K.Run()
	if runErr != nil {
		return out, runErr
	}
	if !done {
		return out, fmt.Errorf("fig2: pipeline did not complete (deadlock?)")
	}
	out.events = sys.K.EventsProcessed()
	return out, nil
}

func runFig2(scale Scale) (*Result, error) {
	cfg := fig2Config(scale)
	imgs := workload.GenImages(rand.New(rand.NewSource(seeded(42))), cfg.images, cfg.meanBytes, cfg.meanCPU, cfg.spread)
	res := newResult("fig2", "Figure 2: preprocessing time parity across imbalanced machine splits")
	res.addf("corpus: %d images, %.1f GiB, %.0f core-seconds of preprocessing",
		cfg.images, float64(workload.TotalBytes(imgs))/(1<<30), workload.TotalCPU(imgs))
	res.addf("%-16s %-28s %10s %9s %8s %s",
		"config", "machines", "time[s]", "vs base", "shards", "compute split")

	// Each machine-split configuration is an independent simulation on
	// its own kernel; fan them out across host cores. Results are
	// consumed strictly in row order (the baseline ratio demands it),
	// never in completion order.
	outs, err := runpar.MapErr(len(cfg.rows), parallelism, func(i int) (fig2Outcome, error) {
		out, err := fig2Pipeline(cfg, cfg.rows[i].machines, imgs)
		if err != nil {
			return out, fmt.Errorf("fig2 %s: %w", cfg.rows[i].name, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var baseSec float64
	for i, row := range cfg.rows {
		out := outs[i]
		res.EventsProcessed += out.events
		sec := out.completion.Seconds()
		if row.name == "baseline" {
			baseSec = sec
		}
		ratio := sec / baseSec
		desc := ""
		for i, mc := range row.machines {
			if i > 0 {
				desc += " + "
			}
			desc += fmt.Sprintf("%gc/%.1fG", mc.Cores, float64(mc.MemBytes)/(1<<30))
		}
		res.addf("%-16s %-28s %10.2f %8.2fx %8d %v",
			row.name, desc, sec, ratio, out.shards, out.procSplit)
		res.set(row.name+".seconds", sec)
		res.set(row.name+".ratio", ratio)
		res.set(row.name+".shards", float64(out.shards))
	}

	// Static (non-fungible) contrast on the hardest split.
	last := cfg.rows[len(cfg.rows)-1]
	if len(last.machines) == 2 {
		res.addf("-- static (non-fungible) baselines on %s --", last.name)
		// Partition evenly: the low-memory machine OOMs.
		even := runStatic(last.machines, imgs, []float64{0.5, 0.5})
		res.addf("static even-split:   %s", describeStatic(even))
		res.set("static_even.oom", boolTo01(even.OOM != nil))
		// Partition by memory: feasible but strands the big machine's CPU.
		m0 := float64(last.machines[0].MemBytes)
		m1 := float64(last.machines[1].MemBytes)
		byMem := runStatic(last.machines, imgs, []float64{m0 / (m0 + m1), m1 / (m0 + m1)})
		res.addf("static by-memory:    %s", describeStatic(byMem))
		if byMem.OOM == nil {
			res.set("static_bymem.seconds", byMem.Completion.Seconds())
			res.set("static_bymem.ratio", byMem.Completion.Seconds()/baseSec)
		}
	}
	res.addf("paper shape: Quicksand stays within a few %% of the single-machine ideal on every split")
	res.addf("(paper: 26.1 / 26.4 / 26.6 / 26.5 s); static placement OOMs or strands CPU.")
	return res, nil
}

func runStatic(machineCfgs []cluster.MachineConfig, imgs []workload.Image, frac []float64) baseline.StaticResult {
	k := sim.NewKernel(seeded(7))
	defer k.Close()
	c := cluster.New(k, simnet.DefaultConfig())
	var ms []*cluster.Machine
	for _, mc := range machineCfgs {
		ms = append(ms, c.AddMachine(mc))
	}
	return baseline.StaticPipeline(k, ms, imgs, frac)
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// describeStatic renders a static-baseline outcome row.
func describeStatic(r baseline.StaticResult) string {
	if r.OOM != nil {
		return fmt.Sprintf("FAILED (%v)", r.OOM)
	}
	return fmt.Sprintf("%.2f s", r.Completion.Seconds())
}
