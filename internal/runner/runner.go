// Package runner is a deterministic job-execution engine: a bounded worker
// pool over which independent units of work fan out, with results folded
// back in strict submission order so that parallel output is byte-identical
// to sequential output.
//
// The engine makes one demand of its jobs: each must be a pure function of
// its inputs — it builds every piece of mutable state (System, Scheduler,
// automata, rngs) itself from value-type specifications and seeds,
// and shares nothing writable with other jobs. The simulator stack is built
// for this: program.Factory instances are immutable after construction,
// machine.Spec constructs a fresh Scheduler per call, and MixSeed derives
// independent per-job rng seeds from a base seed and the job's coordinates.
//
// Layering: this file depends only on the standard library, so every layer
// of the repository (core sweeps, experiment drivers, command binaries) can
// fan out through the same engine. The typed simulation Job/Result pair in
// job.go sits one level up, on top of machine and cost.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine is a bounded worker pool. The zero value is not useful; use New.
//
// The bound is a real concurrency cap shared across nested calls: all
// MapOrdered/CachedMap invocations on one engine draw execution slots from a
// single semaphore, so an experiment fanning out over rows whose jobs fan
// out over permutations on the same engine still executes at most
// Workers() jobs at a time (plus the top-level caller, which always runs
// jobs itself while it waits — that is also what makes nesting
// deadlock-free: progress never requires acquiring a slot).
type Engine struct {
	workers int
	slots   chan struct{} // semaphore: one token per executing job, shared across nested calls
}

// New returns an engine with the given worker bound. workers <= 0 selects
// GOMAXPROCS, the default for "as fast as the hardware allows".
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, slots: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		e.slots <- struct{}{}
	}
	return e
}

// Default returns an engine bounded by GOMAXPROCS at call time.
func Default() *Engine { return New(0) }

// Workers returns the engine's worker bound.
func (e *Engine) Workers() int { return e.workers }

// MapOrdered evaluates fn(i) for every i in [0, n) on the engine's worker
// pool and calls fold(i, result) for each index in strictly increasing
// order on the calling goroutine. It is the deterministic core of the
// engine: however the workers interleave, the fold sees results exactly as
// a sequential loop would, so any order-sensitive aggregation (table rows,
// running maxima, first-error-wins) is byte-identical at every worker
// count.
//
// Error semantics mirror a sequential loop with early exit: the first
// error in index order — whether from fn or from fold — stops the fold and
// is returned, and results at higher indices are discarded. Jobs at higher
// indices may still have started (fn must therefore be side-effect free),
// but their outputs are never observed. With one worker no goroutines are
// spawned at all and fn(i) runs lazily, exactly like the loop it replaces.
//
// Scheduling is caller-runs with helpers: the calling goroutine claims and
// executes the next unfolded job itself whenever no helper has taken it,
// while helper goroutines each acquire one of the engine's shared slots
// per job. The caller needs no slot, so a nested MapOrdered inside a
// helper's fn degrades gracefully to sequential when the engine is
// saturated instead of oversubscribing the worker bound or deadlocking.
func MapOrdered[T any](e *Engine, n int, fn func(i int) (T, error), fold func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	if e.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return err
			}
			if fold != nil {
				if err := fold(i, v); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var (
		mu      sync.Mutex
		ready   = sync.NewCond(&mu)
		vals    = make([]T, n)
		errs    = make([]error, n)
		done    = make([]bool, n)
		claimed = make([]bool, n)
		low     = 0 // all indices below low are claimed
		cancel  atomic.Bool
		quit    = make(chan struct{})
		wg      sync.WaitGroup
	)
	// claim returns the lowest unclaimed index, or -1 when none remain.
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		for low < n && claimed[low] {
			low++
		}
		if low == n {
			return -1
		}
		claimed[low] = true
		return low
	}
	runJob := func(i int) {
		if !cancel.Load() {
			vals[i], errs[i] = fn(i)
		}
		mu.Lock()
		done[i] = true
		ready.Broadcast()
		mu.Unlock()
	}

	helpers := e.workers
	if helpers > n {
		helpers = n
	}
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-quit:
					return
				case <-e.slots:
				}
				i := claim()
				if i < 0 {
					e.slots <- struct{}{}
					return
				}
				runJob(i)
				e.slots <- struct{}{}
			}
		}()
	}

	var foldErr error
	for i := 0; i < n; i++ {
		mu.Lock()
		if !claimed[i] {
			// Caller-runs: no helper has picked this job up yet; execute it
			// on this goroutine rather than waiting for a slot.
			claimed[i] = true
			mu.Unlock()
			runJob(i)
		} else {
			for !done[i] {
				ready.Wait()
			}
			mu.Unlock()
		}
		if errs[i] != nil {
			foldErr = errs[i]
			break
		}
		if fold != nil {
			if err := fold(i, vals[i]); err != nil {
				foldErr = err
				break
			}
		}
	}
	if foldErr != nil {
		cancel.Store(true)
	}
	close(quit)
	wg.Wait()
	return foldErr
}

// Each runs fn(i) for every i in [0, n) on the pool and returns the first
// error in index order, if any.
func (e *Engine) Each(n int, fn func(i int) error) error {
	return MapOrdered(e, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	}, nil)
}

// MixSeed derives a decorrelated seed from a base seed and a job's integer
// coordinates (experiment row, permutation index, trial number, …). Jobs
// must never share a stateful rng across workers; instead each derives its
// own seed so the stream it sees is a pure function of the job's address,
// independent of scheduling. The mixing is a splitmix64 finalizer per
// coordinate, so adjacent coordinates give statistically unrelated seeds.
func MixSeed(base int64, coords ...int64) int64 {
	z := uint64(base)
	for _, c := range coords {
		z += 0x9e3779b97f4a7c15 + uint64(c)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}
