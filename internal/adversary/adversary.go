// Package adversary searches for cost-maximizing executions. The paper's
// Ω(n log n) bound is proved by an adversary that *constructs* expensive
// canonical executions; the fixed policies in internal/machine are only as
// adversarial as their hand-written heuristics. This package closes the gap
// operationally: SearchWorst runs a seeded random-restart + local-mutation
// search over schedule prefixes and reports the empirically-worst canonical
// execution it can find, which by construction is at least as costly as the
// best fixed policy (the fixed policies seed the candidate pool).
//
// Determinism contract: every candidate is a pure runner.ScheduleJob — a
// value of (algorithm, n, scheduler spec, horizon) — evaluated on the
// shared worker pool and folded in submission order. Candidate generation
// for round r is a function of the seed, r, and the incumbent selected by
// the previous round's ordered fold, so the search result is byte-identical
// at every worker count.
package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/perm"
	"repro/internal/runner"
)

// Config tunes the schedule search. The zero value selects defaults sized
// for full-scale experiments; Quick returns the reduced search used by
// -quick paths.
type Config struct {
	// Rounds is the number of mutation rounds after the seeding round.
	Rounds int
	// Restarts is the number of fresh random prefixes per round (the
	// random-restart half of the search).
	Restarts int
	// Mutants is the number of local mutations of the incumbent per round.
	Mutants int
	// PrefixLen is the decision-prefix length; 0 selects 4·n, long enough
	// to steer the whole contention phase of a canonical execution.
	PrefixLen int
	// Horizon is the per-candidate step budget; 0 selects the machine
	// default.
	Horizon int
	// Seed drives all candidate generation.
	Seed int64
	// Seeds are extra candidate schedules injected into the seeding round
	// after the fixed policies (origin "seed:<i>"): warm starts from a
	// previous search, known-expensive schedules, or — in tests — known-bad
	// ones. Like every candidate, a Seed that fails to complete a canonical
	// execution is discarded, never an error.
	Seeds []machine.Spec
}

// Quick returns a reduced search configuration for -quick paths and smoke
// tests.
func Quick() Config { return Config{Rounds: 2, Restarts: 4, Mutants: 4} }

func (c Config) withDefaults(n int) Config {
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.Restarts <= 0 {
		c.Restarts = 8
	}
	if c.Mutants <= 0 {
		c.Mutants = 8
	}
	if c.PrefixLen <= 0 {
		c.PrefixLen = 4 * n
	}
	return c
}

// PolicyResult is one fixed policy's canonical-execution cost, reported so
// tournaments can print the found-worst schedule next to every hand-written
// adversary it beat.
type PolicyResult struct {
	Name      string
	Report    cost.Report
	Canonical bool
}

// Found is the outcome of one schedule search.
type Found struct {
	Algo string
	N    int
	// Spec reproduces the worst schedule found: hand it to a fresh run to
	// replay the execution.
	Spec machine.Spec
	// Origin tells where the winner came from: "fixed:<name>",
	// "seed:<i>" (a Config.Seeds warm start), "restart:<round>", or
	// "mutant:<round>".
	Origin string
	// Report is the worst canonical execution's cost.
	Report cost.Report
	// Fixed holds the seeding round's fixed-policy results in a stable
	// order.
	Fixed []PolicyResult
	// Evaluated counts all candidate evaluations; Discarded counts the
	// candidates rejected for not completing a canonical execution.
	Evaluated int
	Discarded int
}

// FixedBest returns the costliest canonical fixed policy, the baseline the
// search must match or beat. ok is false when no fixed policy completed.
//
// Tie-break: equal SC costs are resolved by submission order — the first
// policy in Fixed (the fixedCandidates listing order) wins, because the
// comparison is strictly greater-than. The incumbent update inside
// SearchWorst uses the same rule, so the reported winner is a deterministic
// function of the candidate sequence alone, independent of worker count.
func (f Found) FixedBest() (PolicyResult, bool) {
	var best PolicyResult
	ok := false
	for _, p := range f.Fixed {
		if p.Canonical && (!ok || p.Report.SC > best.Report.SC) {
			best, ok = p, true
		}
	}
	return best, ok
}

// candidate pairs a scheduler spec with its provenance.
type candidate struct {
	name   string // non-empty for fixed policies
	spec   machine.Spec
	origin string
}

// fixedCandidates returns the seeding round's hand-written policies. Two
// random schedules with decorrelated seeds are included so the baseline is
// not a single unlucky stream.
func fixedCandidates(n int, seed int64) []candidate {
	fixed := []candidate{
		{name: "round-robin", spec: machine.RoundRobinSpec()},
		{name: "progress-first", spec: machine.ProgressFirstSpec()},
		{name: "greedy-cost", spec: machine.GreedyCostSpec()},
		{name: "hold-cs", spec: machine.HoldCSSpec(n)},
		{name: "solo", spec: machine.SoloSpec(perm.Identity(n))},
		{name: "random-0", spec: machine.RandomSpec(runner.MixSeed(seed, -1, 0))},
		{name: "random-1", spec: machine.RandomSpec(runner.MixSeed(seed, -1, 1))},
	}
	for i := range fixed {
		fixed[i].origin = "fixed:" + fixed[i].name
	}
	return fixed
}

// randomPrefix draws a fresh decision prefix: the random-restart move.
func randomPrefix(rng *rand.Rand, n, length int) []int {
	p := make([]int, length)
	for i := range p {
		p[i] = rng.Intn(n)
	}
	return p
}

// mutate copies the incumbent's decision prefix (padding to length with
// random picks when the incumbent completed in fewer steps) and applies a
// small number of local edits: point rewrites and swaps.
func mutate(rng *rand.Rand, base []int, n, length int) []int {
	p := make([]int, length)
	copied := copy(p, base)
	for i := copied; i < length; i++ {
		p[i] = rng.Intn(n)
	}
	for edits := 1 + rng.Intn(3); edits > 0; edits-- {
		if rng.Intn(2) == 0 {
			p[rng.Intn(length)] = rng.Intn(n)
		} else {
			i, j := rng.Intn(length), rng.Intn(length)
			p[i], p[j] = p[j], p[i]
		}
	}
	return p
}

// SearchWorst hunts for the costliest canonical execution of the named
// algorithm at n processes. Candidates fan out over the engine's worker
// pool; the result is byte-identical at every worker count, and — because
// candidate evaluation is a pure function of the candidate — identical
// whether results come from execution or a warm result store.
func SearchWorst(eng *runner.CachedEngine, algoName string, n int, cfg Config) (Found, error) {
	cfg = cfg.withDefaults(n)
	found := Found{Algo: algoName, N: n}

	// The incumbent: best canonical candidate so far, with the decision
	// sequence that produced it (the genome the next round mutates).
	var incumbent struct {
		ok        bool
		spec      machine.Spec
		origin    string
		report    cost.Report
		decisions []int
	}

	evaluate := func(cands []candidate, collectFixed bool) error {
		jobs := make([]runner.ScheduleJob, len(cands))
		for i, c := range cands {
			jobs[i] = runner.ScheduleJob{
				Algo: algoName, N: n, Sched: c.spec,
				Horizon: cfg.Horizon, KeepDecisions: cfg.PrefixLen,
			}
		}
		return eng.RunSchedules(jobs, func(r runner.ScheduleResult) error {
			c := cands[r.Index]
			if r.Err != nil {
				// Hard failures only: unknown algorithm, bad spec, ill-formed
				// step. Truncated and stalled candidates arrive with Err nil
				// and Canonical false (runner.ExecuteScheduleTraced classifies
				// them as discards), so a single bad schedule can never abort
				// the batch.
				return fmt.Errorf("adversary: %s n=%d candidate %s: %w", algoName, n, c.origin, r.Err)
			}
			found.Evaluated++
			if collectFixed && c.name != "" {
				found.Fixed = append(found.Fixed, PolicyResult{Name: c.name, Report: r.Report, Canonical: r.Canonical})
			}
			if !r.Canonical {
				// Truncated or stalled: never score it, however cheap or
				// expensive its partial trace looks.
				found.Discarded++
				return nil
			}
			// Strictly-greater keeps the earliest submission on SC ties (the
			// documented tie-break, shared with Found.FixedBest).
			if !incumbent.ok || r.Report.SC > incumbent.report.SC {
				incumbent.ok = true
				incumbent.spec = c.spec
				incumbent.origin = c.origin
				incumbent.report = r.Report
				incumbent.decisions = r.Decisions
			}
			return nil
		})
	}

	// Round 0 seeds the pool: every fixed policy, the caller's warm-start
	// seeds, then fresh random prefixes.
	seedRound := fixedCandidates(n, cfg.Seed)
	for i, sp := range cfg.Seeds {
		seedRound = append(seedRound, candidate{spec: sp, origin: fmt.Sprintf("seed:%d", i)})
	}
	for i := 0; i < cfg.Restarts; i++ {
		rng := rand.New(rand.NewSource(runner.MixSeed(cfg.Seed, 0, int64(i))))
		seedRound = append(seedRound, candidate{
			spec:   machine.PrefixGreedySpec(randomPrefix(rng, n, cfg.PrefixLen)),
			origin: "restart:0",
		})
	}
	if err := evaluate(seedRound, true); err != nil {
		return found, err
	}

	for round := 1; round <= cfg.Rounds; round++ {
		var cands []candidate
		if incumbent.ok {
			for i := 0; i < cfg.Mutants; i++ {
				rng := rand.New(rand.NewSource(runner.MixSeed(cfg.Seed, int64(round), int64(i))))
				cands = append(cands, candidate{
					spec:   machine.PrefixGreedySpec(mutate(rng, incumbent.decisions, n, cfg.PrefixLen)),
					origin: fmt.Sprintf("mutant:%d", round),
				})
			}
		}
		for i := 0; i < cfg.Restarts; i++ {
			rng := rand.New(rand.NewSource(runner.MixSeed(cfg.Seed, int64(round), int64(cfg.Mutants+i))))
			cands = append(cands, candidate{
				spec:   machine.PrefixGreedySpec(randomPrefix(rng, n, cfg.PrefixLen)),
				origin: fmt.Sprintf("restart:%d", round),
			})
		}
		if err := evaluate(cands, false); err != nil {
			return found, err
		}
	}

	if !incumbent.ok {
		return found, fmt.Errorf("adversary: %s n=%d: no candidate completed a canonical execution (%d evaluated)", algoName, n, found.Evaluated)
	}
	found.Spec = incumbent.spec
	found.Origin = incumbent.origin
	found.Report = incumbent.report
	return found, nil
}
