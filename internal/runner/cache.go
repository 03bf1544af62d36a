package runner

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/trace"
)

// CacheVersion is the code-version salt folded into every store key in the
// repository (jobs, schedule candidates, sweep permutations, experiment
// units). Bump it whenever the simulator's observable outputs change —
// machine stepping, scheduler semantics, cost accounting, the encoding —
// so results written by an older binary become unreachable keys instead of
// stale answers. A cache populated under a different version is simply
// cold, never wrong.
const CacheVersion = "fanl06-sim-v3"

// CachedEngine wraps an Engine with a content-addressed result store and
// an optional prime-shard assignment. It is the handle the whole stack
// fans out through, and every cached fan-out — CachedMap, Run,
// RunSchedules, RunOne — runs the same sequence: look each unit up,
// execute the misses, write them back, fold in submission order.
//
//   - results are folded in submission order, so the folds see
//     byte-identical values whether each result came from cache or
//     execution, at any worker count;
//   - a memory-only store (what NewCached mounts when given none) serves
//     a unit that an earlier fan-out on the same store executed, and
//     keeps nothing past the process;
//   - against a batching backend a fan-out of more than one unit travels
//     batched — reads in one prefetch mget up front, after which a key the
//     mget did not return costs no second round trip, and executed results
//     in buffered mputs flushed at the fan-out barrier — so a fan-out costs
//     round trips per batch, not per unit, and a single unit uses a point
//     get and at most one point put;
//   - with a shard assignment (WithShard) the engine becomes a prime pass:
//     statically enumerable fan-outs execute only this shard's missing keys
//     and skip their folds entirely, so m processes can split one sweep's
//     key space and later fold their stores together with store.Merge.
//
// Adaptive fan-outs (RunSchedules, whose batches are generated round by
// round from prior results) and request-scoped units (RunOne) ignore the
// shard partition: they execute whatever they miss and cache everything,
// since their callers cannot proceed without the values. Deterministic
// search makes every shard cache identical entries for them, so merging
// stays consistent.
type CachedEngine struct {
	*Engine
	cache   *store.Store
	shard   *store.Ring // nil = normal mode; non-nil = prime-only pass owning one member
	self    int         // this pass's member index in shard
	capture bool        // persist executed step logs into the store's blob tier
}

// NewCached wraps an engine with a result store. A nil st mounts a fresh
// memory-only store (store.NewMemory with the default LRU capacity), so
// every engine has a store: a unit it already executed is served from
// memory while the LRU holds it.
func NewCached(e *Engine, st *store.Store) *CachedEngine {
	if st == nil {
		st = store.NewMemory(0)
	}
	return &CachedEngine{Engine: e, cache: st}
}

// WithShard returns a copy of the engine acting as a prime pass for shard i
// of m (0-based): the engine owns member i of the uniform m-member ring, so
// every process derives the identical partition from m alone. It returns
// the engine unchanged when m <= 0 or i is out of range.
func (c *CachedEngine) WithShard(i, m int) *CachedEngine {
	if m <= 0 || i < 0 || i >= m {
		return c
	}
	cp := *c
	cp.shard, cp.self = store.UniformRing(m), i
	return &cp
}

// WithCapture returns a copy of the engine that persists every executed
// unit's step log — the full model.Execution plus the machine's per-step
// changed flags, encoded by internal/trace — into the store's blob tier
// under the unit's own cache key. Only a capturing engine's units record
// their step log at all; every executed unit streams its steps into its
// cost as they execute. Cached hits capture nothing (their trace was
// captured when they were executed, or never will be); encoding runs on
// the worker after its simulation completes, never inside the stepping hot
// path. A store with no blob tier drops what it is given.
func (c *CachedEngine) WithCapture(on bool) *CachedEngine {
	if c.capture == on {
		return c
	}
	cp := *c
	cp.capture = on
	return &cp
}

// captureTrace encodes one executed unit's step log and stores it under
// the unit's cache key when capture is on. Runs on the executing worker,
// strictly after the simulation finished — the hot loop never sees it. A
// hard failure has no step log, so it captures nothing; a discarded
// schedule candidate (truncated, stalled) does, since a search post-mortem
// needs exactly the candidates that went wrong. Failures follow the store
// discipline: an unencodable or unstorable trace costs a future replay one
// re-simulation, never the run an error.
func (c *CachedEngine) captureTrace(k string, rec trace.Record) {
	if !c.capture || k == "" || len(rec.Exec) == 0 {
		return
	}
	blob, err := trace.EncodeRecord(rec)
	if err != nil {
		return //repro:degrade an unencodable trace is dropped; the result itself is unaffected
	}
	c.cache.BlobPut(k, blob)
}

// Priming reports whether the engine is a prime-only shard pass, in which
// statically enumerable fan-outs skip folds and validation layered on fold
// results (e.g. sweep injectivity checks) must be skipped by the caller.
func (c *CachedEngine) Priming() bool { return c != nil && c.shard != nil }

// Owns reports whether this engine's shard assignment owns the key: always
// true in normal mode. Adaptive drivers (a search whose rounds depend on
// prior results) use it to shard at a coarser granule — skip the whole
// search cell when priming and another shard owns its key — since their
// inner fan-outs cannot be partitioned.
func (c *CachedEngine) Owns(key string) bool { return c.inShard(key) }

// inShard reports whether this engine's prime pass owns the key.
func (c *CachedEngine) inShard(key string) bool {
	return c.shard == nil || c.shard.Owner(key) == c.self
}

// unsharded returns the engine without its shard assignment, for the
// fan-outs a prime pass cannot partition: adaptive search batches and
// request-scoped units execute whatever they miss.
func (c *CachedEngine) unsharded() *CachedEngine {
	if c.shard == nil {
		return c
	}
	cp := *c
	cp.shard = nil
	return &cp
}

// outcome carries one unit's value and its in-band error through the
// ordered fold.
type outcome[P any] struct {
	p   P
	err error
}

// skipper is told about each unit a fan-out settles without executing it.
type skipper interface{ skipped(i int) }

// cachedMap is the one lookup → execute → write-back → fold sequence every
// cached fan-out runs: CachedMap, Run, RunSchedules and RunOne are payload
// adapters over it. exec(i, k) executes unit i under its key k ("" when the
// unit is uncacheable). Its error is in-band: the value is never stored,
// and fold receives both and decides whether the fan-out goes on. Folds
// run in index order on the calling goroutine, whether each value came
// from the store or from exec, so they are byte-identical at any worker
// count. skip, when not nil, is told on the worker about each unit that
// does not execute: a hit, or a unit a prime pass leaves to the store or
// to another shard.
//
// Keys are computed once, up front. A fan-out of more than one unit
// against a batching backend travels batched: reads go out in one
// Prefetch before the workers spread out, and executed values go into a
// WriteBuffer flushed at the fan-out barrier. A key that batch did not
// return is looked up in the LRU tier only — the backend already
// answered, and a duplicate unit an earlier executor wrote is resident
// there. A single unit, or a backend that cannot batch, uses point reads
// and writes.
//
// In prime mode the fold never runs: only this shard's keys the store
// lacks execute, and an error from exec aborts the pass.
func cachedMap[P any](c *CachedEngine, n int, key func(i int) string, exec func(i int, k string) (P, error), skip skipper, fold func(i int, p P, err error) error) error {
	keys := make([]string, n) // "" = nothing to look up or write back
	for i := range keys {
		keys[i] = key(i)
	}
	batch := n > 1 && c.cache.Batched()
	var sink store.Putter = c.cache
	if batch {
		wb := store.NewWriteBuffer(c.cache)
		defer wb.Flush()
		sink = wb
	}
	var present map[string]bool // a batch request's answer; nil = ask per key
	if c.Priming() {
		if n > 1 && c.cache.ProbeBatched() {
			var ask []string
			for _, k := range keys {
				if k != "" && c.inShard(k) {
					ask = append(ask, k)
				}
			}
			present = c.cache.Present(ask)
		}
		return c.Each(n, func(i int) error {
			// A stale "absent" from the probe only costs a re-execution
			// whose identical bytes deduplicate.
			k := keys[i]
			if k == "" || !c.inShard(k) || present[k] || present == nil && c.cache.Has(k) {
				if skip != nil {
					skip.skipped(i)
				}
				return nil
			}
			p, err := exec(i, k)
			if err != nil {
				return err
			}
			store.PutJSON(sink, k, p)
			return nil
		})
	}
	if batch {
		present = c.cache.Prefetch(keys)
	}
	return MapOrdered(c.Engine, n, func(i int) (outcome[P], error) {
		k := keys[i]
		if k != "" {
			get := store.GetJSON[P]
			if present != nil && !present[k] {
				get = store.GetResidentJSON[P]
			}
			if p, ok := get(c.cache, k); ok {
				if skip != nil {
					skip.skipped(i)
				}
				return outcome[P]{p: p}, nil
			}
		}
		p, err := exec(i, k)
		if err == nil && k != "" {
			store.PutJSON(sink, k, p)
		}
		return outcome[P]{p, err}, nil
	}, func(i int, o outcome[P]) error {
		return fold(i, o.p, o.err)
	})
}

// CachedMap is MapOrdered with a content-addressed memo in front: fn(i) is
// executed only when key(i) misses the store, and its JSON-round-tripped
// value feeds the fold otherwise. T must therefore be a pure value type
// whose JSON encoding round-trips exactly (ints, strings, bools, float64s,
// slices of those) — which also makes cached and executed folds
// byte-identical. A key of "" marks the unit uncacheable: it is always
// executed in normal mode and never executed by a prime pass (a keyless
// unit cannot be assigned to a shard). An error from fn stops the fan-out
// at its index, like MapOrdered, and is never stored; a fold may be nil.
//
// In prime mode the fold is never called: the pass exists to fill the
// store, and only this shard's missing keys are executed. Errors from fn
// still abort — a prime pass surfaces real simulation failures.
func CachedMap[T any](ce *CachedEngine, n int, key func(i int) string, fn func(i int) (T, error), fold func(i int, v T) error) error {
	return cachedMap(ce, n, key, func(i int, _ string) (T, error) { return fn(i) }, nil, func(i int, v T, err error) error {
		if err != nil || fold == nil {
			return err
		}
		return fold(i, v)
	})
}

// RunOne executes a single job through the store on the calling goroutine
// (request-scoped callers bring their own concurrency): a hit costs no
// simulation, and a miss writes straight back with one point put, so the
// result is immediately visible to every other goroutine sharing the
// store. It never shards. Safe for concurrent use — the engine's fields
// are immutable after construction and the store is goroutine-safe.
// Errors are returned, never cached.
func (c *CachedEngine) RunOne(j Job) (rep cost.Report, err error) {
	err = c.unsharded().Run([]Job{j}, func(r Result) error {
		if r.Err == nil {
			rep = r.Report
		}
		return r.Err
	})
	return rep, err
}

// jobKeyParts is the canonical content of a Job key. Horizon is hashed as
// given (0 and an explicit machine.DefaultHorizon(N) are conservatively
// distinct keys).
type jobKeyParts struct {
	Op      string       `json:"op"`
	Algo    string       `json:"algo"`
	N       int          `json:"n"`
	Sched   machine.Spec `json:"sched"`
	Horizon int          `json:"horizon"`
	Seed    int64        `json:"seed"`
}

// CacheKey returns the job's content address under the current
// CacheVersion, with the scheduler spec canonicalized.
func (j Job) CacheKey() string {
	return store.Key(CacheVersion, jobKeyParts{
		Op: "job", Algo: j.Algo, N: j.N, Sched: j.Sched.Canon(), Horizon: j.Horizon, Seed: j.Seed,
	})
}

// jobPayload is the cached portion of a successful Result. Errors are never
// cached: a failing job re-executes (and re-fails) on every run.
type jobPayload struct {
	Report cost.Report `json:"report"`
}

// Run executes the jobs and calls fold with each Result in submission
// order: a job's Report is served from the store when present and written
// back after execution otherwise. Results whose Err is non-nil still reach
// the fold, and are never stored; returning an error from the fold stops
// the batch. In prime mode only this shard's missing keys execute and the
// fold is skipped.
func (c *CachedEngine) Run(jobs []Job, fold func(Result) error) error {
	fs := &factories[Job]{jobs: jobs}
	return cachedMap(c, len(jobs), func(i int) string { return jobs[i].CacheKey() },
		func(i int, k string) (jobPayload, error) {
			j := jobs[i]
			f, err := fs.take(i)
			if err != nil {
				return jobPayload{}, err
			}
			r, exec, changed := executeOn(f, j, c.capture)
			c.captureTrace(k, trace.Record{Algo: j.Algo, N: j.N, Horizon: j.Horizon, Exec: exec, Changed: changed})
			return jobPayload{Report: r.Report}, r.Err
		},
		fs,
		func(i int, p jobPayload, err error) error {
			return fold(Result{Index: i, Job: jobs[i], Report: p.Report, Err: err})
		})
}

// scheduleKeyParts is the canonical content of a ScheduleJob key.
// KeepDecisions is part of the key because it bounds the cached genome.
type scheduleKeyParts struct {
	Op      string       `json:"op"`
	Algo    string       `json:"algo"`
	N       int          `json:"n"`
	Sched   machine.Spec `json:"sched"`
	Horizon int          `json:"horizon"`
	Keep    int          `json:"keep"`
}

// CacheKey returns the candidate's content address under the current
// CacheVersion, with the scheduler spec canonicalized — so the same genome
// re-proposed in a later search round (or another search sharing the store)
// is a hit, not a simulation.
func (j ScheduleJob) CacheKey() string {
	return store.Key(CacheVersion, scheduleKeyParts{
		Op: "sched", Algo: j.Algo, N: j.N, Sched: j.Sched.Canon(), Horizon: j.Horizon, Keep: j.KeepDecisions,
	})
}

// schedulePayload is the cached portion of a ScheduleResult whose Err is
// nil — including discarded candidates (truncated or stalled), which cache
// as non-canonical entries so a warm search re-discards them without
// re-simulating.
type schedulePayload struct {
	Report    cost.Report `json:"report"`
	Canonical bool        `json:"canonical"`
	Decisions []int       `json:"decisions"`
}

// RunSchedules executes the candidate jobs through the store and calls
// fold with each ScheduleResult in submission order, so search drivers that
// keep a running best are byte-deterministic at every worker count. Results
// whose Err is non-nil still reach the fold, and are never stored. It never
// shards: schedule batches are generated adaptively (round r's candidates
// depend on round r-1's fold), so a prime pass executes its misses like a
// normal run — every shard caches identical entries for the same search,
// and the folds run because the search itself needs them.
func (c *CachedEngine) RunSchedules(jobs []ScheduleJob, fold func(ScheduleResult) error) error {
	c = c.unsharded()
	fs := &factories[ScheduleJob]{jobs: jobs}
	return cachedMap(c, len(jobs), func(i int) string { return jobs[i].CacheKey() },
		func(i int, k string) (schedulePayload, error) {
			j := jobs[i]
			f, err := fs.take(i)
			if err != nil {
				return schedulePayload{}, err
			}
			r, exec, changed := executeSchedule(f, j, c.capture)
			c.captureTrace(k, trace.Record{Algo: j.Algo, N: j.N, Horizon: j.Horizon, Exec: exec, Changed: changed})
			return schedulePayload{Report: r.Report, Canonical: r.Canonical, Decisions: r.Decisions}, r.Err
		},
		fs,
		func(i int, p schedulePayload, err error) error {
			return fold(ScheduleResult{
				Index: i, Job: jobs[i],
				Report: p.Report, Canonical: p.Canonical, Decisions: p.Decisions, Err: err,
			})
		})
}
