package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proclet"
	"repro/internal/sim"
)

// ErrNoCapacity is returned when no machine can host a placement.
var ErrNoCapacity = errors.New("core: no machine has capacity")

// Kind classifies a resource proclet for placement policy.
type Kind int

// Resource proclet kinds.
const (
	KindCompute Kind = iota
	KindMemory
	KindStorage
	KindOther
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindMemory:
		return "memory"
	case KindStorage:
		return "storage"
	default:
		return "other"
	}
}

// demander is implemented by resource proclets that consume CPU; the
// scheduler reads it to estimate per-proclet core demand.
type demander interface{ Demand() float64 }

// workerser exposes a compute proclet's thread count — its capacity
// commitment, used to spread still-idle proclets at placement time.
type workerser interface{ Workers() int }

// procInfo is the scheduler's view of one registered proclet.
type procInfo struct {
	pr     *proclet.Proclet
	kind   Kind
	pinned bool
}

// demand returns the proclet's current core demand.
func (pi *procInfo) demand() float64 {
	if d, ok := pi.pr.Data.(demander); ok {
		return d.Demand()
	}
	return 0
}

// Adaptive is a split/merge policy evaluated periodically by the
// scheduler (sharded structures and pools implement it).
type Adaptive interface {
	Adapt(p *sim.Proc)
}

// Scheduler is Quicksand's two-level control plane (§5): fast
// per-machine reactors absorb usage spikes by evacuating proclets
// within a millisecond, while a slow global loop rebalances long-term
// load and colocates proclets with high communication affinity.
type Scheduler struct {
	sys     *System
	cfg     Config
	info    map[proclet.ID]*procInfo
	compute []*procInfo // the KindCompute entries of info, in ID order
	adapts  []Adaptive
	started bool

	// Scratch for reactCPU, which every reactor tick of every machine
	// reaches: its victim list and the demand it has projected onto each
	// machine this round. One copy serves all reactors because reactCPU uses
	// them only before its first blocking call.
	victims []*procInfo
	added   []float64

	// Counters for control-plane activity.
	Evacuations   metrics.Counter // fast-path CPU evacuations
	MemEvictions  metrics.Counter // fast-path memory evacuations
	Rebalances    metrics.Counter // slow-path load moves
	AffinityMoves metrics.Counter // slow-path colocation moves
	Recoveries    metrics.Counter // crash orphans successfully re-placed
	Sheds         metrics.Counter // crash orphans abandoned for lack of capacity
}

func newScheduler(sys *System) *Scheduler {
	return &Scheduler{
		sys:  sys,
		cfg:  sys.cfg,
		info: make(map[proclet.ID]*procInfo),
	}
}

// register is called by resource proclet constructors.
func (sc *Scheduler) register(pr *proclet.Proclet, kind Kind) {
	sc.unregister(pr.ID())
	pi := &procInfo{pr: pr, kind: kind}
	sc.info[pr.ID()] = pi
	if kind == KindCompute {
		sc.compute = slices.Insert(sc.compute, sc.computeIndex(pr.ID()), pi)
	}
}

func (sc *Scheduler) unregister(id proclet.ID) {
	pi, ok := sc.info[id]
	if !ok {
		return
	}
	delete(sc.info, id)
	if pi.kind == KindCompute {
		i := sc.computeIndex(id)
		sc.compute = slices.Delete(sc.compute, i, i+1)
	}
}

// computeIndex finds id's position (or insertion point) in the
// ID-ordered compute index.
func (sc *Scheduler) computeIndex(id proclet.ID) int {
	i, _ := slices.BinarySearchFunc(sc.compute, id, func(pi *procInfo, id proclet.ID) int {
		return cmp.Compare(pi.pr.ID(), id)
	})
	return i
}

// RegisterProclet registers a resource proclet built outside package
// core (for example storage proclets) for placement and migration.
func (sc *Scheduler) RegisterProclet(pr *proclet.Proclet, kind Kind) { sc.register(pr, kind) }

// UnregisterProclet removes a proclet from scheduler control.
func (sc *Scheduler) UnregisterProclet(id proclet.ID) { sc.unregister(id) }

// Pin excludes a proclet from automatic migration (index proclets,
// queue endpoints wired to fixed hardware).
func (sc *Scheduler) Pin(id proclet.ID) {
	if pi, ok := sc.info[id]; ok {
		pi.pinned = true
	}
}

// RegisterAdaptive adds a split/merge policy to the adaptation loop.
func (sc *Scheduler) RegisterAdaptive(a Adaptive) { sc.adapts = append(sc.adapts, a) }

// start launches the reactor, global, and adaptation processes.
func (sc *Scheduler) start() {
	if sc.started {
		panic("core: scheduler started twice")
	}
	sc.started = true
	k := sc.sys.K
	if !sc.cfg.DisableFastPath {
		for _, m := range sc.sys.Cluster.Machines() {
			m := m
			name := func() string { return fmt.Sprintf("sched/reactor-%d", m.ID) }
			// A calm machine is re-checked in kernel context: the reactor
			// runs, and owns a worker at all, only from its first pressure
			// episode on.
			calm := func() sim.Wait {
				if sc.needsReact(m) {
					return sim.Resume
				}
				return sim.After(sc.cfg.LocalPeriod)
			}
			k.SpawnAwait(name, sim.After(sc.cfg.LocalPeriod), calm, func(p *sim.Proc) {
				for {
					sc.reactCPU(p, m)
					sc.reactMem(p, m)
					p.Await(sim.After(sc.cfg.LocalPeriod), calm)
				}
			})
		}
	}
	if !sc.cfg.DisableSlowPath {
		k.Spawn("sched/global", func(p *sim.Proc) {
			for {
				p.Sleep(globalPeriod)
				sc.rebalance(p)
				sc.colocate(p)
			}
		})
	}
	// Most systems never register a split/merge policy: until one does,
	// the adaptation loop is a poll and owns no worker.
	noAdapts := func() sim.Wait {
		if len(sc.adapts) == 0 {
			return sim.After(adaptPeriod)
		}
		return sim.Resume
	}
	k.SpawnAwait(func() string { return "sched/adapt" }, sim.After(adaptPeriod), noAdapts, func(p *sim.Proc) {
		for {
			for _, a := range sc.adapts {
				a.Adapt(p)
			}
			p.Sleep(adaptPeriod)
		}
	})
}

// ---- Placement ----

// PlaceMemory returns the machine with the most free memory that can
// hold `bytes`.
func (sc *Scheduler) PlaceMemory(bytes int64) (cluster.MachineID, error) {
	var best *cluster.Machine
	for _, m := range sc.sys.Cluster.Machines() {
		if m.Down() || m.MemFree() < bytes {
			continue
		}
		if best == nil || m.MemFree() > best.MemFree() {
			best = m
		}
	}
	if best == nil {
		return 0, fmt.Errorf("%w: memory for %d bytes", ErrNoCapacity, bytes)
	}
	return best.ID, nil
}

// placeMemoryExcluding is PlaceMemory restricted to machines outside
// `exclude` — anti-affine placement for replicas, which are worthless
// on a machine already hosting a copy of the same data.
func (sc *Scheduler) placeMemoryExcluding(bytes int64, exclude map[cluster.MachineID]bool) (cluster.MachineID, error) {
	var best *cluster.Machine
	for _, m := range sc.sys.Cluster.Machines() {
		if exclude[m.ID] || m.Down() || m.MemFree() < bytes {
			continue
		}
		if best == nil || m.MemFree() > best.MemFree() {
			best = m
		}
	}
	if best == nil {
		return 0, fmt.Errorf("%w: anti-affine memory for %d bytes", ErrNoCapacity, bytes)
	}
	return best.ID, nil
}

// computeLoad estimates machine m's best-effort CPU load: registered
// compute demand over available cores.
func (sc *Scheduler) computeLoad(m *cluster.Machine, extra float64) float64 {
	avail := m.AvailCores()
	if avail <= 0 {
		return math.Inf(1)
	}
	return (sc.demandOn(m.ID) + extra) / avail
}

// demandOn sums registered compute demand currently placed on machine
// m. Like workersOn it walks only the compute index — every reactor
// tick calls it, and a serving fleet registers thousands of memory
// proclets and no compute ones — and in ID order, so the float sum
// does not depend on map iteration.
func (sc *Scheduler) demandOn(m cluster.MachineID) float64 {
	var sum float64
	for _, pi := range sc.compute {
		if pi.pr.Location() == m {
			sum += pi.demand()
		}
	}
	return sum
}

// workersOn sums compute worker threads placed on machine m.
func (sc *Scheduler) workersOn(m cluster.MachineID) float64 {
	var sum float64
	for _, pi := range sc.compute {
		if pi.pr.Location() == m {
			if w, ok := pi.pr.Data.(workerser); ok {
				sum += float64(w.Workers())
			}
		}
	}
	return sum
}

// placementLoad is computeLoad with capacity commitments included, so
// freshly created (still idle) proclets spread across machines instead
// of piling onto one.
func (sc *Scheduler) placementLoad(m *cluster.Machine, extra float64) float64 {
	avail := m.AvailCores()
	if avail <= 0 {
		return math.Inf(1)
	}
	commit := sc.demandOn(m.ID)
	if w := sc.workersOn(m.ID); w > commit {
		commit = w
	}
	return (commit + extra) / avail
}

// placeCompute returns the machine with the lowest CPU load (counting
// capacity commitments of idle proclets) that has available cores and
// room for a compute proclet heap.
func (sc *Scheduler) placeCompute() (cluster.MachineID, error) {
	var best *cluster.Machine
	bestLoad := math.Inf(1)
	for _, m := range sc.sys.Cluster.Machines() {
		if m.Down() || m.AvailCores() <= 0 || m.MemFree() < sc.cfg.ComputeProcletHeap {
			continue
		}
		if l := sc.placementLoad(m, 0); l < bestLoad {
			best, bestLoad = m, l
		}
	}
	if best == nil {
		return 0, fmt.Errorf("%w: compute", ErrNoCapacity)
	}
	return best.ID, nil
}

// placeComputeIdle is placeCompute restricted to machines with idle CPU
// (load under 1). Splits use it: a new compute proclet is only worth
// creating where spare cycles exist (§3.3).
func (sc *Scheduler) placeComputeIdle() (cluster.MachineID, error) {
	id, err := sc.placeCompute()
	if err != nil {
		return 0, err
	}
	m := sc.sys.Cluster.Machine(id)
	if sc.placementLoad(m, 1) > 1 {
		return 0, fmt.Errorf("%w: no idle CPU", ErrNoCapacity)
	}
	return id, nil
}

// ---- Fast path: per-machine reactors ----

// movableOn appends to dst the non-pinned, running proclets of a kind on
// machine m, smallest heap first (cheapest to migrate).
func (sc *Scheduler) movableOn(dst []*procInfo, m cluster.MachineID, kind Kind) []*procInfo {
	keep := func(pi *procInfo) {
		if pi.kind == kind && !pi.pinned &&
			pi.pr.Location() == m && pi.pr.State() == proclet.StateRunning {
			dst = append(dst, pi)
		}
	}
	if kind == KindCompute {
		for _, pi := range sc.compute {
			keep(pi)
		}
	} else {
		for _, pi := range sc.info {
			keep(pi)
		}
	}
	slices.SortFunc(dst, func(a, b *procInfo) int {
		if c := cmp.Compare(a.pr.HeapBytes(), b.pr.HeapBytes()); c != 0 {
			return c
		}
		return cmp.Compare(a.pr.ID(), b.pr.ID())
	})
	return dst
}

// needsReact reports whether the fast path would act on machine m now:
// the entry conditions of reactCPU and reactMem, free of side effects so
// that an idle reactor can evaluate it in its sim.Proc.Await stage.
func (sc *Scheduler) needsReact(m *cluster.Machine) bool {
	if m.Down() {
		return false
	}
	return sc.demandOn(m.ID) > m.AvailCores()*cpuHighWater ||
		m.MemPressure() > memHighWater
}

// reactCPU evacuates compute proclets from an overloaded machine,
// launching the migrations in parallel and waiting for them all.
func (sc *Scheduler) reactCPU(p *sim.Proc, m *cluster.Machine) {
	if m.Down() {
		return
	}
	avail := m.AvailCores()
	demand := sc.demandOn(m.ID)
	if demand <= avail*cpuHighWater {
		return
	}
	// Nothing between here and wg.Wait blocks, so no other reactor runs
	// while the scheduler's scratch is in use.
	sc.victims = sc.movableOn(sc.victims[:0], m.ID, KindCompute)
	victims := sc.victims
	if len(victims) == 0 {
		return
	}
	// Projected demand added to each target this round.
	sc.added = append(sc.added[:0], make([]float64, sc.sys.Cluster.NumMachines())...)
	added := sc.added
	var wg *sim.WaitGroup // made by the first launch: most rounds find no target
	launched := 0
	var sp obs.SpanID
	for _, v := range victims {
		if demand <= avail || demand <= avail*cpuHighWater {
			break
		}
		d := v.demand()
		if d == 0 {
			continue
		}
		target := sc.pickCPUTarget(m.ID, d, added, v.pr.HeapBytes())
		if target < 0 {
			break
		}
		if sc.sys.Obs != nil && sp == 0 {
			// The pressure episode: every evacuation it launches is a
			// child span, so traces answer "why did this proclet move".
			sp = sc.sys.Obs.Start(obs.KindPressure, "cpu", int(m.ID), 0)
			sc.sys.Obs.Num(sp, "demand", demand)
			sc.sys.Obs.Num(sp, "avail", avail)
			if avail > 0 {
				sc.sys.Obs.Num(sp, "pressure", demand/avail)
			}
		}
		added[target] += d
		demand -= d
		if wg == nil {
			wg = new(sim.WaitGroup)
		}
		// Copies for the closure: capturing wg or sp themselves would put
		// them on the heap in every round, launch or not.
		id, cause, round := v.pr.ID(), sp, wg
		round.Add(1)
		launched++
		sc.sys.K.Spawn("sched/evacuate", func(mp *sim.Proc) {
			defer round.Done()
			if err := sc.sys.Runtime.MigrateCaused(mp, id, target, cause); err == nil {
				sc.Evacuations.Inc()
			}
		})
	}
	if launched > 0 {
		// A cluster machine's Name is "m<ID>": no subject to format.
		sc.sys.Trace.Emitf(sc.sys.K.Now(), obs.KindPressure, m.Name,
			int(m.ID), -1, "cpu evacuating %d proclets", launched)
		wg.Wait(p)
	}
	sc.sys.Obs.End(sp)
}

// pickCPUTarget finds the machine (other than src) that can absorb d
// cores of demand while staying under the low-water load.
func (sc *Scheduler) pickCPUTarget(src cluster.MachineID, d float64, added []float64, heap int64) cluster.MachineID {
	var best cluster.MachineID = -1
	bestLoad := math.Inf(1)
	for _, m := range sc.sys.Cluster.Machines() {
		if m.ID == src || m.Down() || m.AvailCores() <= 0 || m.MemFree() < heap {
			continue
		}
		load := sc.computeLoad(m, added[m.ID]+d)
		if load < cpuLowWater && load < bestLoad {
			best, bestLoad = m.ID, load
		}
	}
	return best
}

// reactMem evacuates memory proclets from a machine near its memory
// capacity, until pressure drops below the high water mark.
func (sc *Scheduler) reactMem(p *sim.Proc, m *cluster.Machine) {
	if m.Down() || m.MemPressure() <= memHighWater {
		return
	}
	victims := sc.movableOn(nil, m.ID, KindMemory)
	// Evacuate biggest first: frees the most per migration.
	for i, j := 0, len(victims)-1; i < j; i, j = i+1, j-1 {
		victims[i], victims[j] = victims[j], victims[i]
	}
	var sp obs.SpanID
	for _, v := range victims {
		if m.MemPressure() <= memHighWater {
			break
		}
		target := sc.pickMemTarget(m.ID, v.pr.HeapBytes())
		if target < 0 {
			break
		}
		if sc.sys.Obs != nil && sp == 0 {
			sp = sc.sys.Obs.Start(obs.KindPressure, "mem", int(m.ID), 0)
			sc.sys.Obs.Num(sp, "pressure", m.MemPressure())
		}
		if err := sc.sys.Runtime.MigrateCaused(p, v.pr.ID(), target, sp); err == nil {
			sc.MemEvictions.Inc()
		}
	}
	sc.sys.Obs.End(sp)
}

// pickMemTarget finds the machine with the most free memory that can
// absorb `bytes` while staying safely under the high water mark.
func (sc *Scheduler) pickMemTarget(src cluster.MachineID, bytes int64) cluster.MachineID {
	var best cluster.MachineID = -1
	var bestFree int64 = -1
	for _, m := range sc.sys.Cluster.Machines() {
		if m.ID == src || m.Down() {
			continue
		}
		after := float64(m.MemUsed()+bytes) / float64(m.MemCapacity())
		if after >= memHighWater-0.05 {
			continue
		}
		if m.MemFree() > bestFree {
			best, bestFree = m.ID, m.MemFree()
		}
	}
	return best
}

// FreeUpMemory synchronously evacuates memory proclets from machine m
// until at least `bytes` are free (or nothing more can move). It is the
// demand-paged escape hatch for writers that hit ErrNoMemory between
// reactor ticks. It reports whether the space was freed.
func (sc *Scheduler) FreeUpMemory(p *sim.Proc, mid cluster.MachineID, bytes int64) bool {
	m := sc.sys.Cluster.Machine(mid)
	var sp obs.SpanID
	for _, v := range sc.movableOn(nil, mid, KindMemory) {
		if m.MemFree() >= bytes {
			break
		}
		target := sc.pickMemTarget(mid, v.pr.HeapBytes())
		if target < 0 {
			continue
		}
		if sc.sys.Obs != nil && sp == 0 {
			sp = sc.sys.Obs.Start(obs.KindPressure, "mem-demand", int(mid), 0)
			sc.sys.Obs.Num(sp, "need_bytes", float64(bytes))
			sc.sys.Obs.Num(sp, "pressure", m.MemPressure())
		}
		if err := sc.sys.Runtime.MigrateCaused(p, v.pr.ID(), target, sp); err == nil {
			sc.MemEvictions.Inc()
		}
	}
	sc.sys.Obs.End(sp)
	return m.MemFree() >= bytes
}

// ---- Slow path: global rebalancing and affinity ----

// rebalance moves compute demand from the most- to the least-loaded
// machine when the imbalance is substantial. Unlike the fast path it
// acts below the panic threshold, smoothing long-term placement.
func (sc *Scheduler) rebalance(p *sim.Proc) {
	machines := sc.sys.Cluster.Machines()
	if len(machines) < 2 {
		return
	}
	const maxMovesPerRound = 4
	for i := 0; i < maxMovesPerRound; i++ {
		var hi, lo *cluster.Machine
		hiLoad, loLoad := -1.0, math.Inf(1)
		for _, m := range machines {
			if m.Down() {
				continue
			}
			l := sc.computeLoad(m, 0)
			if l > hiLoad {
				hi, hiLoad = m, l
			}
			if l < loLoad {
				lo, loLoad = m, l
			}
		}
		if hi == nil || lo == nil || hi == lo {
			return
		}
		if math.IsInf(loLoad, 1) || hiLoad-loLoad < 0.5 || hiLoad <= 1 {
			return
		}
		moved := false
		for _, v := range sc.movableOn(nil, hi.ID, KindCompute) {
			d := v.demand()
			if d == 0 {
				continue
			}
			if sc.computeLoad(lo, d) >= sc.computeLoad(hi, -d) {
				break // move would overshoot
			}
			if lo.MemFree() < v.pr.HeapBytes() {
				continue
			}
			var sp obs.SpanID
			if sc.sys.Obs != nil {
				sp = sc.sys.Obs.Start(obs.KindSched, "rebalance", int(hi.ID), 0)
				sc.sys.Obs.SetRoute(sp, int(hi.ID), int(lo.ID))
				sc.sys.Obs.Num(sp, "hiLoad", hiLoad)
				sc.sys.Obs.Num(sp, "loLoad", loLoad)
			}
			if err := sc.sys.Runtime.MigrateCaused(p, v.pr.ID(), lo.ID, sp); err == nil {
				sc.Rebalances.Inc()
				sc.sys.Trace.Emitf(sc.sys.K.Now(), obs.KindRebalance, v.pr.Name(),
					int(hi.ID), int(lo.ID), "load %.2f->%.2f", hiLoad, loLoad)
				moved = true
			}
			sc.sys.Obs.End(sp)
			break
		}
		if !moved {
			return
		}
	}
}

// colocate migrates proclets next to the peers they exchange the most
// bytes with, when the peer's machine has capacity — the paper's
// affinity answer to "how can we maintain locality?" (§5).
func (sc *Scheduler) colocate(p *sim.Proc) {
	// Snapshot candidates first: migration mutates comm maps' owners.
	type move struct {
		id     proclet.ID
		target cluster.MachineID
	}
	var moves []move
	ids := make([]proclet.ID, 0, len(sc.info))
	for id := range sc.info {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pi := sc.info[id]
		if pi.pinned || pi.pr.State() != proclet.StateRunning {
			continue
		}
		// A tie in bytes goes to the lower peer ID, not to map order.
		var bestPeer proclet.ID
		var bestBytes int64
		for peer, bytes := range pi.pr.CommBytes() {
			if bytes > bestBytes || bytes == bestBytes && bytes > 0 && peer < bestPeer {
				bestPeer, bestBytes = peer, bytes
			}
		}
		pi.pr.ResetComm()
		if bestBytes < affinityBytes {
			continue
		}
		peerPr := sc.sys.Runtime.Lookup(bestPeer)
		if peerPr == nil || peerPr.Location() == pi.pr.Location() {
			continue
		}
		target := sc.sys.Cluster.Machine(peerPr.Location())
		if target.Down() || target.MemFree() < pi.pr.HeapBytes() {
			continue
		}
		if pi.kind == KindCompute && sc.computeLoad(target, pi.demand()) >= cpuLowWater {
			continue
		}
		moves = append(moves, move{id: id, target: target.ID})
	}
	for _, mv := range moves {
		var sp obs.SpanID
		if sc.sys.Obs != nil {
			from := -1
			if pr := sc.sys.Runtime.Lookup(mv.id); pr != nil {
				from = int(pr.Location())
			}
			sp = sc.sys.Obs.Start(obs.KindSched, "affinity", from, 0)
			sc.sys.Obs.SetRoute(sp, from, int(mv.target))
		}
		if err := sc.sys.Runtime.MigrateCaused(p, mv.id, mv.target, sp); err == nil {
			sc.AffinityMoves.Inc()
		}
		sc.sys.Obs.End(sp)
	}
}
