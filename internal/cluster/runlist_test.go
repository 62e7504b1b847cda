package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// refMachine is the processor-sharing CPU model as it stood before the
// run list: the same float arithmetic and the same timer arming, with the
// resident tasks in an indexed min-heap on (vfinish, id).
type refMachine struct {
	k           *sim.Kernel
	cores       float64
	heap        []*refTask
	attained    float64
	nextTaskID  int64
	reserved    float64
	lastSettle  sim.Time
	completion  sim.Timer
	down        bool
	coreSeconds float64
}

type refTask struct {
	m         *refMachine
	id        int64
	vfinish   float64
	remaining float64
	heapIdx   int
	done      sim.Cond
	finished  bool
	canceled  bool
}

func newRefMachine(k *sim.Kernel, cores float64) *refMachine {
	r := &refMachine{k: k, cores: cores}
	r.completion.Init(k, func(uint64) { r.completeFinished() }, 0)
	return r
}

func (t *refTask) Done() *sim.Cond {
	if t.finished {
		return nil
	}
	return &t.done
}

func (t *refTask) Cancel() {
	if t.finished {
		return
	}
	r := t.m
	r.settle()
	t.remaining = t.vfinish - r.attained
	r.heapRemove(t.heapIdx)
	t.finished = true
	t.canceled = true
	t.done.Broadcast()
	r.reschedule()
}

func refRemaining(t *refTask) time.Duration {
	if t.remaining < 0 {
		return 0
	}
	return time.Duration(math.Ceil(t.remaining))
}

func (r *refMachine) perTaskRate() float64 {
	n := len(r.heap)
	if n == 0 {
		return 0
	}
	rate := math.Max(r.cores-r.reserved, 0) / float64(n)
	if rate > 1 {
		rate = 1
	}
	return rate
}

func (r *refMachine) Utilization() float64 {
	return (math.Min(r.reserved, r.cores) + r.perTaskRate()*float64(len(r.heap))) / r.cores
}

func refLess(a, b *refTask) bool {
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	return a.id < b.id
}

func (r *refMachine) heapPush(t *refTask) {
	t.heapIdx = len(r.heap)
	r.heap = append(r.heap, t)
	r.siftUp(t.heapIdx)
}

func (r *refMachine) heapRemove(i int) {
	h := r.heap
	n := len(h) - 1
	t := h[i]
	if i != n {
		h[i] = h[n]
		h[i].heapIdx = i
	}
	h[n] = nil
	r.heap = h[:n]
	if i < n {
		if !r.siftDown(i) {
			r.siftUp(i)
		}
	}
	t.heapIdx = -1
}

func (r *refMachine) siftUp(i int) {
	h := r.heap
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		h[i].heapIdx, h[p].heapIdx = i, p
		i = p
	}
}

func (r *refMachine) siftDown(i int) bool {
	h := r.heap
	n := len(h)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if rr := l + 1; rr < n && refLess(h[rr], h[l]) {
			c = rr
		}
		if !refLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		h[i].heapIdx, h[c].heapIdx = i, c
		i = c
	}
	return i > i0
}

func (r *refMachine) settle() {
	now := r.k.Now()
	if now == r.lastSettle {
		return
	}
	elapsed := float64(now - r.lastSettle)
	rate := r.perTaskRate()
	if rate > 0 {
		r.attained += elapsed * rate
		r.coreSeconds += elapsed * rate * float64(len(r.heap)) / 1e9
	}
	r.lastSettle = now
}

func (r *refMachine) reschedule() {
	rate := r.perTaskRate()
	if rate <= 0 || len(r.heap) == 0 {
		r.completion.Stop()
		return
	}
	minRem := r.heap[0].vfinish - r.attained
	if minRem < 0 {
		minRem = 0
	}
	dt := time.Duration(math.Ceil(minRem / rate))
	r.completion.Arm(r.k.Now().Add(dt))
}

func (r *refMachine) completeFinished() {
	r.settle()
	const eps = 0.5
	for len(r.heap) > 0 && r.heap[0].vfinish-r.attained <= eps {
		t := r.heap[0]
		r.heapRemove(0)
		t.remaining = t.vfinish - r.attained
		t.finished = true
		t.done.Broadcast()
	}
	r.reschedule()
}

func (r *refMachine) Crash() {
	if r.down {
		return
	}
	r.settle()
	r.down = true
	for len(r.heap) > 0 {
		t := r.heap[0]
		r.heapRemove(0)
		t.remaining = t.vfinish - r.attained
		t.finished = true
		t.canceled = true
		t.done.Broadcast()
	}
	r.reschedule()
}

func (r *refMachine) Restart() {
	if !r.down {
		return
	}
	r.settle()
	r.down = false
}

func (r *refMachine) Submit(work time.Duration) *refTask {
	r.settle()
	r.nextTaskID++
	t := &refTask{m: r, id: r.nextTaskID, vfinish: r.attained + float64(work)}
	if r.down {
		t.remaining = float64(work)
		t.heapIdx = -1
		t.finished, t.canceled = true, true
		return t
	}
	r.heapPush(t)
	r.reschedule()
	return t
}

func (r *refMachine) SetReserved(cores float64) {
	r.settle()
	r.reserved = cores
	r.reschedule()
}

// psPair is one tape's two machines, each on a kernel of its own, and the
// handles the tape holds on both.
type psPair struct {
	km, kr *sim.Kernel
	m      *Machine
	r      *refMachine
	tasks  []*Task
	refs   []*refTask
	seq    []int // the tape's number for each held handle
	logM   []retirement
	logR   []retirement
	agreed int // retirements already compared
	n      int
}

// submit puts work on both machines and parks a staged waiter on each
// task that logs its retirement.
func (pp *psPair) submit(work time.Duration) {
	n := pp.n
	pp.n++
	t, rt := pp.m.Submit(work), pp.r.Submit(work)
	pp.tasks, pp.refs, pp.seq = append(pp.tasks, t), append(pp.refs, rt), append(pp.seq, n)
	pp.km.SpawnStaged(nil, func() sim.Wait {
		if c := t.Done(); c != nil {
			return sim.On(c)
		}
		pp.logM = append(pp.logM, retirement{n, pp.km.Now(), t.canceled, t.Remaining()})
		return sim.Resume
	})
	pp.kr.SpawnStaged(nil, func() sim.Wait {
		if c := rt.Done(); c != nil {
			return sim.On(c)
		}
		pp.logR = append(pp.logR, retirement{n, pp.kr.Now(), rt.canceled, refRemaining(rt)})
		return sim.Resume
	})
}

// logged reports whether handle i's waiter has seen it retire.
func (pp *psPair) logged(i int) bool {
	for _, e := range pp.logM {
		if e.task == pp.seq[i] {
			return true
		}
	}
	return false
}

// diff returns how the two machines, their kernels, their handles or
// their retirement logs differ, or "" when they agree bit for bit.
func (pp *psPair) diff() string {
	m, r := pp.m, pp.r
	if a, b := m.Runnable(), len(r.heap); a != b {
		return fmt.Sprintf("Runnable %d, heap %d", a, b)
	}
	if a, b := m.Utilization(), r.Utilization(); math.Float64bits(a) != math.Float64bits(b) {
		return fmt.Sprintf("Utilization %v, heap %v", a, b)
	}
	if a, b := m.CoreSeconds, r.coreSeconds; math.Float64bits(a) != math.Float64bits(b) {
		return fmt.Sprintf("CoreSeconds %v, heap %v", a, b)
	}
	for i, t := range pp.tasks {
		rt := pp.refs[i]
		if t.finished != rt.finished || t.canceled != rt.canceled ||
			math.Float64bits(t.remaining) != math.Float64bits(rt.remaining) {
			return fmt.Sprintf("task %d: finished %v canceled %v remaining %v, heap %v %v %v",
				pp.seq[i], t.finished, t.canceled, t.remaining, rt.finished, rt.canceled, rt.remaining)
		}
	}
	if len(pp.logM) != len(pp.logR) {
		return fmt.Sprintf("%d retirements, heap %d", len(pp.logM), len(pp.logR))
	}
	for ; pp.agreed < len(pp.logM); pp.agreed++ {
		if i := pp.agreed; pp.logM[i] != pp.logR[i] {
			return fmt.Sprintf("retirement %d: %+v, heap %+v", i, pp.logM[i], pp.logR[i])
		}
	}
	if a, b := pp.km.EventsProcessed(), pp.kr.EventsProcessed(); a != b {
		return fmt.Sprintf("EventsProcessed %d, heap %d", a, b)
	}
	if a, b := pp.km.Pending(), pp.kr.Pending(); a != b {
		return fmt.Sprintf("Pending %d, heap %d", a, b)
	}
	return ""
}

// playTape drives both machines through one seeded tape of submits
// (in and out of finish order, and pairs with equal finish points),
// cancels, reservations up to every core, crashes and restarts, releases
// and clock steps. After each operation it steps both kernels by one
// event, so the next event's time is compared too. A long tape keeps
// enough work resident that the run list's head passes runSlack without
// draining; it reports whether a compaction was seen to keep a task.
func playTape(t *testing.T, seed int64) (compacted bool) {
	rng := rand.New(rand.NewSource(seed))
	cores := []float64{1, 1.5, 2, 4}[rng.Intn(4)]
	long := seed%8 == 0
	ops, submitP, stepMax := 150, 0.3, int64(120_000)
	if long {
		ops, submitP, stepMax = 1000, 0.5, 15_000
	}
	pp := &psPair{km: sim.NewKernel(1), kr: sim.NewKernel(1)}
	defer pp.km.Close()
	defer pp.kr.Close()
	pp.m = NewMachine(pp.km, 0, "m", MachineConfig{Cores: cores})
	pp.r = newRefMachine(pp.kr, cores)

	var watch *Task // resident when the head last stood at runSlack-1 or more
	watchHead := 0
	for op := 0; op < ops; op++ {
		var what string
		x := rng.Float64()
		if long && x < submitP && pp.m.Runnable() >= 24 {
			x = 1 // a long tape holds its backlog near 24 tasks: it steps the clock instead
		}
		switch {
		case x < submitP:
			switch rng.Intn(3) {
			case 0: // behind everything resident: a tail append
				what = "submit in order"
				pp.submit(time.Millisecond + time.Duration(rng.Int63n(100_000)))
			case 1:
				what = "submit"
				pp.submit(time.Duration(1 + rng.Int63n(200_000)))
			default: // equal finish points: the id breaks the tie
				what = "submit pair"
				w := time.Duration(1 + rng.Int63n(100_000))
				pp.submit(w)
				pp.submit(w)
			}
		case x < submitP+0.1 && len(pp.tasks) > 0:
			i := rng.Intn(len(pp.tasks))
			what = fmt.Sprintf("cancel %d", pp.seq[i])
			pp.tasks[i].Cancel()
			pp.refs[i].Cancel()
		case x < submitP+0.15:
			c := []float64{0, 0.5, 1, cores - 0.25, cores, cores + 1}[rng.Intn(6)]
			what = fmt.Sprintf("reserve %v", c)
			pp.m.SetReserved(c)
			pp.r.SetReserved(c)
		case x < submitP+0.17 && !long:
			what = "crash"
			pp.m.Crash()
			pp.r.Crash()
		case x < submitP+0.2:
			what = "restart"
			pp.m.Restart()
			pp.r.Restart()
		case x < submitP+0.25 && len(pp.tasks) > 0:
			i := rng.Intn(len(pp.tasks))
			if !pp.logged(i) {
				continue
			}
			what = fmt.Sprintf("release %d", pp.seq[i])
			pp.tasks[i].Release()
			last := len(pp.tasks) - 1
			pp.tasks[i], pp.refs[i], pp.seq[i] = pp.tasks[last], pp.refs[last], pp.seq[last]
			pp.tasks, pp.refs, pp.seq = pp.tasks[:last], pp.refs[:last], pp.seq[:last]
		default:
			d := []int64{0, 1, rng.Int63n(stepMax)}[rng.Intn(3)]
			what = fmt.Sprintf("run %dns", d)
			to := pp.km.Now() + sim.Time(d)
			pp.km.RunUntil(to)
			pp.kr.RunUntil(to)
		}
		if d := pp.diff(); d != "" {
			t.Fatalf("seed %d, op %d (%s) at %v: %s", seed, op, what, pp.km.Now(), d)
		}
		if a, b := pp.km.Step(), pp.kr.Step(); a != b || pp.km.Now() != pp.kr.Now() {
			t.Fatalf("seed %d, op %d (%s): next event (%v at %v), heap (%v at %v)",
				seed, op, what, a, pp.km.Now(), b, pp.kr.Now())
		}
		if d := pp.diff(); d != "" {
			t.Fatalf("seed %d, op %d (%s), one event on, at %v: %s", seed, op, what, pp.km.Now(), d)
		}
		m := pp.m
		if watch != nil && m.runHead < watchHead && !watch.finished {
			compacted = true // the head went back while a task stayed resident
		}
		if m.runHead >= runSlack-1 && m.Runnable() > 0 {
			watch, watchHead = m.run[len(m.run)-1], m.runHead
		} else if watch != nil && watch.finished {
			watch = nil
		}
	}
	return compacted
}

// TestRunListMatchesHeap plays 200 seeded tapes through Machine and
// through refMachine, the indexed heap the run list replaced, and
// requires every observable to agree bit for bit after every step:
// Runnable, Utilization and CoreSeconds, each handle's finished, canceled
// and remaining work, the retirement order with its instants, and the
// kernel's EventsProcessed, pending events and next event time. Each of
// these hand mutations of machine.go fails it:
//   - insert appending at the tail without the ordering scan;
//   - insert dropping the id tie-break (>= in place of >);
//   - retire's compaction keeping one entry too few, or repeating one
//     (the retired head left in place and copied back with the rest);
//   - Cancel skipping reschedule when it takes the head.
func TestRunListMatchesHeap(t *testing.T) {
	compactions := 0
	for seed := int64(1); seed <= 200; seed++ {
		if playTape(t, seed) {
			compactions++
		} else if seed%8 == 0 {
			t.Errorf("long tape %d never compacted its run list while work stayed resident", seed)
		}
	}
	t.Logf("%d tapes compacted without draining", compactions)
}
