package experiments

import (
	"sync"

	"repro/internal/runpar"
)

// spec is one simulation run of an experiment: a value, of a type that
// names its experiment, whose run simulates it on a kernel of its own to
// an outcome plus the kernel events it executed. An outcome is plain
// data — no system, kernel or fleet — and a config holding slices is
// rebuilt inside run from the spec's Scale.
type spec interface {
	run() (any, uint64, error)
}

// memoRun is one memoized run. panicked is what the run panicked with,
// raised again to every caller of its spec.
type memoRun struct {
	sync.Once
	out      any
	events   uint64
	err      error
	panicked any
}

// runMemo holds the fig1 family's untraced runs of this process, so a
// spec three experiments share (fig1's quicksand mode is abl-sched's
// two-level row and abl-reactor's 200µs row) is simulated once. No other
// experiment shares a spec, so no other spec is memoized: that would save
// nothing within a pass, and would turn a later pass in the same process
// into lookups where it should time the experiment. misses counts the
// runs simulate executes instead of taking from the memo.
type runMemo struct {
	sync.Mutex
	runs   map[fig1Spec]*memoRun
	misses int
}

var memo = runMemo{runs: make(map[fig1Spec]*memoRun)}

// reset empties the memo. A spec holds neither the base seed nor the
// worker count, so setting either resets it, and each seed and -par
// pass of the golden table simulates on its own.
func (m *runMemo) reset() {
	m.Lock()
	defer m.Unlock()
	m.runs = make(map[fig1Spec]*memoRun)
	m.misses = 0
}

// simulate runs specs on up to parallelism host workers, sets res's
// EventsProcessed to the sum of their kernel events, and returns their
// outcomes, each an O, in spec order, or the first error in spec order.
func simulate[O any, S spec](res *Result, specs []S) ([]O, error) {
	events := make([]uint64, len(specs))
	outs, err := runpar.MapErr(len(specs), parallelism, func(i int) (O, error) {
		out, ev, err := once(specs[i])
		events[i] = ev
		o, _ := out.(O) // a failed run's outcome may be an untyped zero
		return o, err
	})
	if err != nil {
		return nil, err
	}
	var sum uint64
	for _, ev := range events {
		sum += ev
	}
	res.EventsProcessed = sum
	return outs, nil
}

// once runs s. An untraced fig1Spec it takes from the memo, simulating
// it on the first call; concurrent callers of one spec wait for that one
// run. A traced run is never memoized: tracing adds kernel events and
// writes a file.
func once(s spec) (any, uint64, error) {
	f, memoized := s.(fig1Spec)
	memoized = memoized && !f.traced
	memo.Lock()
	e := memo.runs[f]
	if !memoized || e == nil {
		memo.misses++
	}
	if memoized && e == nil {
		e = new(memoRun)
		memo.runs[f] = e
	}
	memo.Unlock()
	if !memoized {
		return s.run()
	}
	e.Do(func() {
		defer func() { e.panicked = recover() }()
		e.out, e.events, e.err = s.run()
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.out, e.events, e.err
}
