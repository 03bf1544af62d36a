// Package core ties the paper's three proof steps into one verified
// pipeline and derives the lower bound numbers:
//
//	Construct(A, π) → (M, ≼)          (Section 5)
//	Encode(M, ≼)    → E_π             (Section 6)
//	Decode(A, E_π)  → α_π             (Section 7)
//
// Pipeline runs all three for one permutation and machine-checks every
// theorem along the way: Theorem 5.5 (critical sections in π order),
// Lemma 6.1 (linearization cost invariance, via the decoded execution's
// cost), Theorem 6.2 (|E_π| = O(C)), and Theorem 7.4 (the decoded execution
// is a linearization of (M, ≼)). Sweep utilities aggregate pipelines over
// sets of permutations for the counting argument of Theorem 7.5: n!
// distinct executions force max |E_π| ≥ log₂ n! bits, hence max C(α_π) =
// Ω(n log n).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/construct"
	"repro/internal/cost"
	"repro/internal/decode"
	"repro/internal/encode"
	"repro/internal/model"
	"repro/internal/perm"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/verify"
)

// Pipeline is the verified result of running the full proof pipeline for
// one (algorithm, permutation) pair.
type Pipeline struct {
	Factory  program.Factory
	Perm     []int
	Result   *construct.Result
	Encoding *encode.Encoding
	// Decoded is α_π = Decode(E_π): a linearization of (M, ≼).
	Decoded model.Execution
	// Cost is C(α_π), the state change cost of the decoded execution —
	// equal to the cost of every linearization by Lemma 6.1. It is
	// Report.SC.
	Cost int
	// Report is α_π's cost under every model, from the charges the
	// decoder's System recorded.
	Report cost.Report
}

// Run executes Construct → Encode → Decode for the permutation and verifies
// the pipeline's guarantees. Any verification failure is returned as an
// error: a non-nil Pipeline is a machine-checked instance of the paper's
// Sections 5-7 for this π.
func Run(f program.Factory, pi []int) (*Pipeline, error) {
	res, err := construct.Construct(f, pi)
	if err != nil {
		return nil, err
	}
	enc, err := encode.Encode(res.Set)
	if err != nil {
		return nil, err
	}
	dec, changed, err := decode.DecodeTraced(f, enc.Bits, enc.BitLen)
	if err != nil {
		return nil, fmt.Errorf("core: decode(pi=%v): %w", pi, err)
	}
	// Theorem 7.4: the decoded execution is a linearization of (M, ≼).
	if err := res.Set.CheckLinearization(dec); err != nil {
		return nil, fmt.Errorf("core: decoded execution is not a linearization (Theorem 7.4): %w", err)
	}
	// The decoded execution is a real execution of A with the mutual
	// exclusion properties, and critical sections follow π (Theorem 5.5).
	if err := verify.MutexExecution(f, dec); err != nil {
		return nil, fmt.Errorf("core: decoded execution invalid: %w", err)
	}
	if err := verify.EntryOrder(dec, pi); err != nil {
		return nil, fmt.Errorf("core: Theorem 5.5 violated: %w", err)
	}
	// The decoder stepped α on a fresh System, so its recorded flags are
	// α's charges.
	rep := cost.Of(f, dec, changed)
	// Lemma 6.1: decoded cost equals the canonical linearization's cost.
	canonical, err := res.Cost()
	if err != nil {
		return nil, err
	}
	if rep.SC != canonical {
		return nil, fmt.Errorf("core: decoded cost %d ≠ canonical linearization cost %d (Lemma 6.1)", rep.SC, canonical)
	}
	return &Pipeline{
		Factory:  f,
		Perm:     append([]int(nil), pi...),
		Result:   res,
		Encoding: enc,
		Decoded:  dec,
		Cost:     rep.SC,
		Report:   rep,
	}, nil
}

// BitsPerCost returns |E_π| / C(α_π), the constant of Theorem 6.2 for this
// pipeline. It must stay bounded as n grows.
func (p *Pipeline) BitsPerCost() float64 {
	if p.Cost == 0 {
		return 0
	}
	return float64(p.Encoding.BitLen) / float64(p.Cost)
}

// SweepStats aggregates pipelines over a set of permutations.
type SweepStats struct {
	N              int
	Perms          int
	MaxCost        int
	MinCost        int
	SumCost        int
	MaxBits        int
	SumBits        int
	MaxBitsPerCost float64
	// Distinct is the number of distinct decoded executions; for an
	// exhaustive sweep it must equal n! (the injectivity that powers
	// Theorem 7.5).
	Distinct int
}

// MeanCost returns the average C(α_π) over the sweep.
func (s SweepStats) MeanCost() float64 {
	if s.Perms == 0 {
		return 0
	}
	return float64(s.SumCost) / float64(s.Perms)
}

// MeanBits returns the average |E_π| in bits over the sweep.
func (s SweepStats) MeanBits() float64 {
	if s.Perms == 0 {
		return 0
	}
	return float64(s.SumBits) / float64(s.Perms)
}

// Sweep runs the pipeline for every permutation in perms and aggregates.
// Pipelines execute in parallel on the default engine (bounded by
// GOMAXPROCS), over a fresh memory-only store that nothing else reads;
// use SweepCached to choose the engine.
func Sweep(f program.Factory, perms [][]int) (SweepStats, error) {
	return sweep(runner.NewCached(runner.Default(), nil), f.Name(), f.N(), built(f), perms)
}

// built returns f as an already-resolved factory.
func built(f program.Factory) func() (program.Factory, error) {
	return func() (program.Factory, error) { return f, nil }
}

// sweepOut is the per-permutation result a sweep aggregates — and the unit
// the content-addressed store memoizes, so its fields are exported pure
// values that round-trip exactly through JSON. Workers return this small
// summary instead of the whole Pipeline so an out-of-order window (and a
// cache entry) holds bytes, not executions.
type sweepOut struct {
	Cost int     `json:"c"`
	Bits int     `json:"b"`
	BPC  float64 `json:"r"`
	// Hash identifies the decoded execution for the Distinct count; a short
	// content hash stands in for the execution string so cache entries stay
	// small and cold and warm runs count distincts identically.
	Hash string `json:"h"`
}

// sweepKeyParts is the canonical content of one permutation's store key.
type sweepKeyParts struct {
	Op   string `json:"op"`
	Algo string `json:"algo"`
	N    int    `json:"n"`
	Perm []int  `json:"perm"`
}

// hashExec returns the short content hash of a decoded execution's string
// form, used for distinctness counting.
func hashExec(exec model.Execution) string {
	sum := sha256.Sum256(exec.Append(make([]byte, 0, 24*len(exec))))
	return hex.EncodeToString(sum[:8])
}

// SweepCached runs the pipeline of the registered algorithm algo at n
// processes for every permutation in perms on the given engine and
// aggregates. The sweep's first executed unit builds the factory, once,
// and every other unit shares it read-only (factories are immutable; every
// run builds fresh automata and registers); a sweep the store serves
// entirely builds none, and a build error is the sweep's error. Results
// are folded in permutation order, so the stats — including first-error
// behaviour — are identical at every worker count. Each permutation's
// pipeline summary is keyed by (algorithm, n, π) under the code-version
// salt, so re-runs — in this process or any other sharing the engine's
// store — fold cached summaries instead of re-verifying the pipeline,
// and the aggregated stats are identical either way. On a priming (shard)
// engine it only fills the store: the returned stats are meaningless and
// the caller must not validate them.
func SweepCached(eng *runner.CachedEngine, algo string, n int, perms [][]int) (SweepStats, error) {
	return sweep(eng, runner.FactoryName(algo, n), n, runner.LazyFactory(algo, n), perms)
}

// sweep is SweepCached for the factory named name at n processes, which
// factory resolves.
func sweep(eng *runner.CachedEngine, name string, n int, factory func() (program.Factory, error), perms [][]int) (SweepStats, error) {
	stats := SweepStats{N: n, MinCost: -1}
	seen := make(map[string]bool, len(perms))
	key := func(i int) string {
		return store.Key(runner.CacheVersion, sweepKeyParts{Op: "sweep", Algo: name, N: n, Perm: perms[i]})
	}
	err := runner.CachedMap(eng, len(perms), key, func(i int) (sweepOut, error) {
		f, err := factory()
		if err != nil {
			return sweepOut{}, err
		}
		p, err := Run(f, perms[i])
		if err != nil {
			return sweepOut{}, err
		}
		return sweepOut{
			Cost: p.Cost,
			Bits: p.Encoding.BitLen,
			BPC:  p.BitsPerCost(),
			Hash: hashExec(p.Decoded),
		}, nil
	}, func(i int, o sweepOut) error {
		stats.Perms++
		stats.SumCost += o.Cost
		stats.SumBits += o.Bits
		if o.Cost > stats.MaxCost {
			stats.MaxCost = o.Cost
		}
		if stats.MinCost < 0 || o.Cost < stats.MinCost {
			stats.MinCost = o.Cost
		}
		if o.Bits > stats.MaxBits {
			stats.MaxBits = o.Bits
		}
		if o.BPC > stats.MaxBitsPerCost {
			stats.MaxBitsPerCost = o.BPC
		}
		seen[o.Hash] = true
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.Distinct = len(seen)
	return stats, nil
}

// ExhaustiveSweep runs the pipeline over all of S_n and additionally checks
// the injectivity required by Theorem 7.5: distinct permutations yield
// distinct decoded executions (n! of them). It runs on the default engine
// over a fresh memory-only store that nothing else reads; use
// ExhaustiveSweepCached to choose the engine.
func ExhaustiveSweep(f program.Factory) (SweepStats, error) {
	return exhaustiveSweep(runner.NewCached(runner.Default(), nil), f.Name(), f.N(), built(f))
}

// ExhaustiveSweepCached is ExhaustiveSweep of the registered algorithm algo
// at n processes on the given engine, building the factory as SweepCached
// does. On a priming (shard) engine the injectivity check is skipped — a
// prime pass folds nothing, so there is nothing to count; the check runs
// on the merged replay instead.
func ExhaustiveSweepCached(eng *runner.CachedEngine, algo string, n int) (SweepStats, error) {
	return exhaustiveSweep(eng, runner.FactoryName(algo, n), n, runner.LazyFactory(algo, n))
}

// exhaustiveSweep is ExhaustiveSweepCached for the factory named name at n
// processes, which factory resolves.
func exhaustiveSweep(eng *runner.CachedEngine, name string, n int, factory func() (program.Factory, error)) (SweepStats, error) {
	if n > 8 {
		return SweepStats{}, fmt.Errorf("core: exhaustive sweep of S_%d (%d permutations) refused; use Sweep with a sample", n, perm.Factorial(n))
	}
	var perms [][]int
	perm.ForEach(n, func(pi []int) bool {
		perms = append(perms, append([]int(nil), pi...))
		return true
	})
	stats, err := sweep(eng, name, n, factory, perms)
	if err != nil {
		return stats, err
	}
	if eng.Priming() {
		return stats, nil
	}
	if want := int(perm.Factorial(n)); stats.Distinct != want {
		return stats, fmt.Errorf("core: only %d distinct executions for %d permutations (Theorem 7.5 injectivity violated)", stats.Distinct, want)
	}
	return stats, nil
}

// InformationBound returns log₂(n!), the bit floor that max |E_π| must
// reach over any exhaustive sweep, and with it (via Theorem 6.2) the
// Ω(n log n) cost bound.
func InformationBound(n int) float64 { return perm.Log2Factorial(n) }
