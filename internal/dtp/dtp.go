// Package dtp provides the parallel APIs of Quicksand's distributed
// thread pool (§3.2) — ForEach, Map, Reduce — over a core.Pool, whose
// threads are sharded across compute proclets. They compose memory and
// compute proclets: for example, mapping a function over a sharded
// vector's elements with iterator prefetch.
//
// The pool is elastic: a TargetScaler policy splits or merges compute
// proclets toward a size derived from the consumer's capacity (§3.3, §4).
package dtp

import (
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/internal/sim"
)

// ForEachVec applies fn to every element of a sharded vector, fanning
// out over the pool in chunks of `chunk` elements. Each chunk iterates
// with prefetch (batch size = chunk, capped at 64), so remote shards
// stream in behind the computation. Blocks until all elements are
// processed; the first error (if any) is returned.
func ForEachVec[T any](p *sim.Proc, pool *core.Pool, v *sharded.Vector[T], chunk int,
	fn func(tc *core.TaskCtx, idx uint64, val T)) error {
	if chunk < 1 {
		chunk = 1
	}
	batch := chunk
	if batch > 64 {
		batch = 64
	}
	n := v.Len()
	var wg sim.WaitGroup
	var firstErr error
	for lo := uint64(0); lo < n; lo += uint64(chunk) {
		lo := lo
		hi := lo + uint64(chunk)
		if hi > n {
			hi = n
		}
		wg.Add(1)
		pool.Run(func(tc *core.TaskCtx) {
			defer wg.Done()
			it := v.IterRange(lo, hi, batch)
			for i := lo; i < hi; i++ {
				val, ok, err := it.Next(tc.Proc(), tc.Machine())
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				if !ok {
					return
				}
				fn(tc, i, val)
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// mapVec applies fn to every element and collects the results in
// element order.
func mapVec[T, R any](p *sim.Proc, pool *core.Pool, v *sharded.Vector[T], chunk int,
	fn func(tc *core.TaskCtx, idx uint64, val T) R) ([]R, error) {
	out := make([]R, v.Len())
	err := ForEachVec(p, pool, v, chunk, func(tc *core.TaskCtx, idx uint64, val T) {
		out[idx] = fn(tc, idx, val)
	})
	return out, err
}

// ReduceVec maps every element through fn and folds the results with
// the associative combine function, starting from zero.
func ReduceVec[T, R any](p *sim.Proc, pool *core.Pool, v *sharded.Vector[T], chunk int,
	fn func(tc *core.TaskCtx, val T) R, combine func(R, R) R, zero R) (R, error) {
	partials, err := mapVec(p, pool, v, chunk, func(tc *core.TaskCtx, _ uint64, val T) R {
		return fn(tc, val)
	})
	acc := zero
	for _, r := range partials {
		acc = combine(acc, r)
	}
	return acc, err
}

// TargetScaler drives a pool toward an externally computed size — the
// paper's Figure 3 controller, which splits or merges preprocessing
// compute proclets "after learning of a change in GPU resources": the
// target is derived from the consumer's current capacity (for example
// activeGPUs x preprocessCost/gpuCost). Register with the scheduler's
// adaptation loop.
type TargetScaler struct {
	pool *core.Pool
	// Target computes the desired pool size.
	Target func() int

	// Grows and Shrinks count actions taken.
	Grows   int64
	Shrinks int64
}

// NewTargetScaler wires a target scaler for pool.
func NewTargetScaler(pool *core.Pool, target func() int) *TargetScaler {
	return &TargetScaler{pool: pool, Target: target}
}

// Adapt implements core.Adaptive: one split or merge per adaptation
// decision, toward the target, as in the paper.
func (ts *TargetScaler) Adapt(p *sim.Proc) {
	want, cur := ts.Target(), ts.pool.Size()
	switch {
	case cur < want:
		if grew, _ := ts.pool.Grow(); grew {
			ts.Grows++
		}
	case cur > want:
		if shrank, _ := ts.pool.Shrink(); shrank {
			ts.Shrinks++
		}
	}
}
