package runner

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
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

// CachedEngine wraps an Engine with an optional content-addressed result
// store and an optional prime-shard assignment. It is the handle the whole
// stack fans out through:
//
//   - with a nil store it behaves exactly like the bare Engine;
//   - with a store, Run / RunSchedules / CachedMap consult the store before
//     executing and write back after, and because results are folded in
//     submission order the folds see byte-identical values whether each
//     result came from cache or execution, at any worker count; against a
//     batching backend both directions travel batched — reads in one
//     prefetch mget up front, executed results in buffered mputs flushed at
//     the fan-out barrier — so a fan-out costs round trips per batch, not
//     per unit;
//   - with a shard assignment (WithShard) the engine becomes a prime pass:
//     statically enumerable fan-outs execute only this shard's missing keys
//     and skip their folds entirely, so m processes can split one sweep's
//     key space and later fold their stores together with store.Merge.
//
// Adaptive fan-outs (RunSchedules, whose batches are generated round by
// round from prior results) ignore the shard partition: they execute
// whatever they miss and cache everything, since their control flow cannot
// proceed without the values. Deterministic search makes every shard cache
// identical entries for them, so merging stays consistent.
type CachedEngine struct {
	*Engine
	cache   *store.Store
	shard   *store.Ring // nil = normal mode; non-nil = prime-only pass owning one member
	self    int         // this pass's member index in shard
	capture bool        // persist executed step logs into the store's blob tier
}

// NewCached wraps an engine with a result store; st may be nil for a plain
// uncached engine behind the same interface.
func NewCached(e *Engine, st *store.Store) *CachedEngine {
	return &CachedEngine{Engine: e, cache: st}
}

// WithShard returns a copy of the engine acting as a prime pass for shard i
// of m (0-based): the engine owns member i of the uniform m-member ring, so
// every process derives the identical partition from m alone. It requires a
// store — a shard pass without somewhere to write results would do nothing
// — and returns the engine unchanged when m <= 0, i is out of range, or no
// store is attached.
func (c *CachedEngine) WithShard(i, m int) *CachedEngine {
	if m <= 0 || i < 0 || i >= m || c.cache == nil {
		return c
	}
	cp := *c
	cp.shard, cp.self = store.UniformRing(m), i
	return &cp
}

// WithCapture returns a copy of the engine that persists every executed
// unit's step log — the full model.Execution plus the machine's per-step
// changed flags, encoded by internal/trace — into the store's blob tier
// under the unit's own cache key. Cached hits capture nothing (their trace
// was captured when they were executed, or never will be); encoding runs
// on the worker after its simulation completes, never inside the stepping
// hot path. Without a store capture has nothing to write to, so the engine
// is returned unchanged.
func (c *CachedEngine) WithCapture(on bool) *CachedEngine {
	if c.cache == nil || c.capture == on {
		return c
	}
	cp := *c
	cp.capture = on
	return &cp
}

// Capturing reports whether executed step logs are being persisted.
func (c *CachedEngine) Capturing() bool { return c != nil && c.capture }

// captureTrace encodes one executed unit's step log and stores it under
// the unit's cache key. Runs on the executing worker, strictly after the
// simulation finished — the hot loop never sees it. Failures follow the
// store discipline: an unencodable or unstorable trace costs a future
// replay one re-simulation, never the run an error.
func (c *CachedEngine) captureTrace(k, algo string, n, horizon int, exec model.Execution, changed []bool) {
	if k == "" || len(exec) == 0 {
		return
	}
	blob, err := trace.EncodeRecord(trace.Record{Algo: algo, N: n, Horizon: horizon, Exec: exec, Changed: changed})
	if err != nil {
		return //repro:degrade an unencodable trace is dropped; the result itself is unaffected
	}
	c.cache.BlobPut(k, blob)
}

// executeJob runs one job, capturing its step log when capture is on.
func (c *CachedEngine) executeJob(k string, j Job) Result {
	if !c.capture {
		return Execute(j)
	}
	r, exec, changed := ExecuteTraced(j)
	if r.Err == nil {
		c.captureTrace(k, j.Algo, j.N, j.Horizon, exec, changed)
	}
	return r
}

// executeSchedule runs one candidate, capturing its step log when capture
// is on. Discarded candidates (truncated, stalled) capture too: their
// executions replay like any other, and a search post-mortem needs exactly
// the candidates that went wrong.
func (c *CachedEngine) executeSchedule(k string, j ScheduleJob) ScheduleResult {
	if !c.capture {
		return ExecuteSchedule(j)
	}
	r, exec, changed := ExecuteScheduleTraced(j)
	if r.Err == nil {
		c.captureTrace(k, j.Algo, j.N, j.Horizon, exec, changed)
	}
	return r
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

// prefetch warms the store's LRU tier with a whole fan-out's keys before
// the workers spread out, when the backend can batch — one gzipped mget
// against a remote store instead of one point request per job. It returns
// the keys it computed, indexed by job, so the fan-out reuses them instead
// of hashing every unit twice; the nil return (local backends, whose
// per-key reads are already cheap) means no keys were computed at all.
// Purely an optimization: hits, misses, and folded bytes are identical
// with or without it.
func (c *CachedEngine) prefetch(n int, key func(i int) string) []string {
	if !c.cache.Batched() {
		return nil
	}
	keys := make([]string, n)
	fetch := make([]string, 0, n)
	for i := range keys {
		keys[i] = key(i)
		if keys[i] != "" {
			fetch = append(fetch, keys[i])
		}
	}
	c.cache.Prefetch(fetch)
	return keys
}

// probe batch-resolves which of a prime pass's in-shard keys are already
// stored — presence only, no values on the wire (a prime pass never reads
// the results it skips). Like prefetch it returns the computed key index;
// both returns are nil when the backend cannot batch presence probes,
// meaning "compute and probe per key".
func (c *CachedEngine) probe(n int, key func(i int) string) (keys []string, present map[string]bool) {
	if !c.cache.ProbeBatched() {
		return nil, nil
	}
	keys = make([]string, n)
	ask := make([]string, 0, n)
	for i := range keys {
		keys[i] = key(i)
		if keys[i] != "" && c.inShard(keys[i]) {
			ask = append(ask, keys[i])
		}
	}
	return keys, c.cache.Present(ask)
}

// keyAt returns the i'th unit's cache key, reusing a batch-computed index
// when one exists.
func keyAt(keys []string, key func(i int) string, i int) string {
	if keys != nil {
		return keys[i]
	}
	return key(i)
}

// sink returns the write path for one fan-out and its flush barrier. When
// the backend can batch, executed results are buffered and pushed as one
// mput per fan-out (the write-side mirror of prefetch) instead of one
// synchronous round trip per miss; the flush runs after the fan-out's last
// unit so every write is durable — and visible to other processes — before
// the engine returns. Local backends keep the direct per-key path, whose
// appends are already cheap. Folds are unaffected either way: they consume
// the executed values, and the buffer serves in-process reads from the LRU
// tier immediately.
func (c *CachedEngine) sink() (store.Putter, func()) {
	if !c.cache.Batched() {
		return c.cache, func() {}
	}
	wb := store.NewWriteBuffer(c.cache, 0)
	return wb, wb.Flush
}

// stored reports whether a prime pass may skip the unit under key:
// present holds batch-established presence when a probe ran (a stale
// "absent" only costs a re-execution whose identical bytes deduplicate),
// and a per-key Has answers otherwise.
func (c *CachedEngine) stored(present map[string]bool, key string) bool {
	if present != nil {
		return present[key]
	}
	return c.cache.Has(key)
}

// CachedMap is MapOrdered with a content-addressed memo in front: fn(i) is
// executed only when key(i) misses the store, and its JSON-round-tripped
// value feeds the fold otherwise. T must therefore be a pure value type
// whose JSON encoding round-trips exactly (ints, strings, bools, float64s,
// slices of those) — which also makes cached and executed folds
// byte-identical. A key of "" marks the unit uncacheable: it is always
// executed in normal mode and never executed by a prime pass (a keyless
// unit cannot be assigned to a shard).
//
// In prime mode the fold is never called: the pass exists to fill the
// store, and only this shard's missing keys are executed. Errors from fn
// still abort — a prime pass surfaces real simulation failures.
func CachedMap[T any](ce *CachedEngine, n int, key func(i int) string, fn func(i int) (T, error), fold func(i int, v T) error) error {
	if ce.cache == nil {
		return MapOrdered(ce.Engine, n, fn, fold)
	}
	sink, flush := ce.sink()
	defer flush()
	if ce.Priming() {
		keys, present := ce.probe(n, key)
		return ce.Each(n, func(i int) error {
			k := keyAt(keys, key, i)
			if k == "" || !ce.inShard(k) || ce.stored(present, k) {
				return nil
			}
			v, err := fn(i)
			if err != nil {
				return err
			}
			store.PutJSON(sink, k, v)
			return nil
		})
	}
	keys := ce.prefetch(n, key)
	return MapOrdered(ce.Engine, n, func(i int) (T, error) {
		k := keyAt(keys, key, i)
		if k != "" {
			if v, ok := store.GetJSON[T](ce.cache, k); ok {
				return v, nil
			}
		}
		v, err := fn(i)
		if err == nil && k != "" {
			store.PutJSON(sink, k, v)
		}
		return v, err
	}, fold)
}

// RunOne executes a single job through the store: a cache hit costs no
// simulation, a miss executes on the calling goroutine (no worker pool —
// request-scoped callers bring their own concurrency) and writes straight
// back so the result is immediately visible to every other goroutine
// sharing the store. Unlike the fan-out paths there is no write buffering:
// one unit is one put. Safe for concurrent use — the engine's fields are
// immutable after construction and the store is goroutine-safe. Errors are
// returned, never cached, exactly like the batch paths.
func (c *CachedEngine) RunOne(j Job) (cost.Report, error) {
	if c.cache == nil {
		r := Execute(j)
		return r.Report, r.Err
	}
	k := j.CacheKey()
	if p, ok := store.GetJSON[jobPayload](c.cache, k); ok {
		return p.Report, nil
	}
	r := c.executeJob(k, j)
	if r.Err != nil {
		return cost.Report{}, r.Err
	}
	store.PutJSON(c.cache, k, jobPayload{Report: r.Report})
	return r.Report, nil
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

// Run is Engine.Run behind the store: each job's Report is served from
// cache when present and written back after execution otherwise. Folds see
// exactly the Results a bare engine would deliver. In prime mode only this
// shard's missing keys execute and the fold is skipped.
func (c *CachedEngine) Run(jobs []Job, fold func(Result) error) error {
	if c.cache == nil {
		return c.Engine.Run(jobs, fold)
	}
	jobKey := func(i int) string { return jobs[i].CacheKey() }
	sink, flush := c.sink()
	defer flush()
	if c.Priming() {
		keys, present := c.probe(len(jobs), jobKey)
		return c.Each(len(jobs), func(i int) error {
			k := keyAt(keys, jobKey, i)
			if k == "" || !c.inShard(k) || c.stored(present, k) {
				return nil
			}
			r := c.executeJob(k, jobs[i])
			if r.Err != nil {
				return r.Err
			}
			store.PutJSON(sink, k, jobPayload{Report: r.Report})
			return nil
		})
	}
	keys := c.prefetch(len(jobs), jobKey)
	return MapOrdered(c.Engine, len(jobs), func(i int) (Result, error) {
		k := keyAt(keys, jobKey, i)
		if p, ok := store.GetJSON[jobPayload](c.cache, k); ok {
			return Result{Index: i, Job: jobs[i], Report: p.Report}, nil
		}
		r := c.executeJob(k, jobs[i])
		r.Index = i
		if r.Err == nil {
			store.PutJSON(sink, k, jobPayload{Report: r.Report})
		}
		return r, nil
	}, func(i int, r Result) error {
		return fold(r)
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
// nil — including discarded candidates (truncated, stalled, or rejected by
// the cost model), which cache as non-canonical zero-report entries so a
// warm search re-discards them without re-simulating.
type schedulePayload struct {
	Report    cost.Report `json:"report"`
	Canonical bool        `json:"canonical"`
	Decisions []int       `json:"decisions"`
}

// RunSchedules is Engine.RunSchedules behind the store. It never shards:
// schedule batches are generated adaptively (round r's candidates depend on
// round r-1's fold), so a prime pass executes its misses like a normal run
// — every shard caches identical entries for the same search, and the folds
// run because the search itself needs them.
func (c *CachedEngine) RunSchedules(jobs []ScheduleJob, fold func(ScheduleResult) error) error {
	if c.cache == nil {
		return c.Engine.RunSchedules(jobs, fold)
	}
	jobKey := func(i int) string { return jobs[i].CacheKey() }
	sink, flush := c.sink()
	defer flush()
	keys := c.prefetch(len(jobs), jobKey)
	return MapOrdered(c.Engine, len(jobs), func(i int) (ScheduleResult, error) {
		k := keyAt(keys, jobKey, i)
		if p, ok := store.GetJSON[schedulePayload](c.cache, k); ok {
			return ScheduleResult{
				Index: i, Job: jobs[i],
				Report: p.Report, Canonical: p.Canonical, Decisions: p.Decisions,
			}, nil
		}
		r := c.executeSchedule(k, jobs[i])
		r.Index = i
		if r.Err == nil {
			store.PutJSON(sink, k, schedulePayload{Report: r.Report, Canonical: r.Canonical, Decisions: r.Decisions})
		}
		return r, nil
	}, func(i int, r ScheduleResult) error {
		return fold(r)
	})
}
