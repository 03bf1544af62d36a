// Package repro is the public API of this reproduction of Fan & Lynch,
// "An Ω(n log n) Lower Bound on the Cost of Mutual Exclusion" (PODC 2006).
//
// It exposes three layers:
//
//  1. A deterministic shared-memory simulator: mutual exclusion algorithms
//     (Yang–Anderson, Peterson, bakery, and RMW-based locks) run as
//     register automata under explicit, seeded schedulers, with exact cost
//     accounting in the state change (SC), cache-coherent and DSM models.
//
//  2. The paper's proof pipeline, executable: Construct (Section 5) builds,
//     for any permutation π, a metastep partial order whose linearizations
//     make processes enter their critical sections in π order while
//     staying invisible to lower-indexed processes; Encode (Section 6)
//     compresses it to O(C) bits; Decode (Section 7) reconstructs the
//     execution from the bits alone. Prove runs all three and
//     machine-checks Theorems 5.5, 6.2 and 7.4 and Lemma 6.1.
//
//  3. Experiment drivers that regenerate every quantitative claim in
//     EXPERIMENTS.md, including the Theorem 7.5 counting argument:
//     n! distinct decodable executions force max |E_π| ≥ log₂ n! bits and
//     hence Ω(n log n) state change cost.
//
// Quick start:
//
//	algo, _ := repro.NewAlgorithm(repro.AlgoYangAnderson, 8)
//	exec, _ := repro.RunCanonical(algo, repro.NewRoundRobin())
//	report, _ := repro.MeasureCost(algo, exec)
//	fmt.Println(report) // SC, CC-RMR, DSM-RMR, total accesses
//
//	proof, _ := repro.Prove(algo, []int{3, 1, 4, 0, 2, 6, 5, 7})
//	fmt.Println(proof.Cost, proof.Encoding.BitLen)
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
	_ "repro/internal/rmw" // registers AlgoTAS and AlgoMCS
	"repro/internal/verify"
)

// Algorithm is an n-process shared-memory algorithm: the paper's "system"
// of deterministic process automata plus registers.
type Algorithm = program.Factory

// Execution is a finite execution, represented by its step sequence.
type Execution = model.Execution

// Step is a single process step.
type Step = model.Step

// Scheduler is the adversary choosing which process steps next.
type Scheduler = machine.Scheduler

// CostReport aggregates an execution's cost under all supported models.
type CostReport = cost.Report

// Proof is a verified run of the paper's Construct→Encode→Decode pipeline
// for one permutation.
type Proof = core.Pipeline

// SweepStats aggregates proofs over many permutations.
type SweepStats = core.SweepStats

// Algorithm names accepted by NewAlgorithm.
const (
	// AlgoYangAnderson is the local-spin tournament of [13]: O(n log n)
	// SC cost in every canonical execution (the bound's tightness witness).
	AlgoYangAnderson = mutex.NameYangAnderson
	// AlgoPeterson is a tournament of two-process Peterson locks
	// (busywaits on two registers; not local-spin).
	AlgoPeterson = mutex.NamePeterson
	// AlgoBakery is Lamport's bakery (Θ(n²) canonical SC cost).
	AlgoBakery = mutex.NameBakery
	// AlgoNaive is an intentionally unsafe lock for checker validation.
	AlgoNaive = mutex.NameNaive
	// AlgoDekker is Dekker's two-process algorithm (n must be 2).
	AlgoDekker = mutex.NameDekker
	// AlgoDijkstra is Dijkstra's 1965 algorithm (deadlock-free, Θ(n²)).
	AlgoDijkstra = mutex.NameDijkstra
	// AlgoFilter is Peterson's n-process filter lock (Θ(n²) per passage).
	AlgoFilter = mutex.NameFilter
	// AlgoBakeryScribble is the bakery plus one inert shared write after
	// the exit section's last read; it forces the construction's
	// hidden-write gadget (see DESIGN.md, reproduction findings).
	AlgoBakeryScribble = mutex.NameBakeryScribble
	// AlgoTAS is a test-and-test-and-set lock (RMW extension model).
	AlgoTAS = "tas"
	// AlgoMCS is the MCS queue lock (RMW extension model; O(1) RMR per
	// passage — the gap registers provably cannot close).
	AlgoMCS = "mcs"
)

// Algorithms returns all registered algorithm names, sorted.
func Algorithms() []string { return mutex.Names() }

// NewAlgorithm builds an n-process instance of a named algorithm.
func NewAlgorithm(name string, n int) (Algorithm, error) {
	return mutex.New(name, n)
}

// NewRoundRobin returns the fair cyclic scheduler.
func NewRoundRobin() Scheduler { return machine.NewRoundRobin() }

// NewRandomScheduler returns a seeded uniform scheduler.
func NewRandomScheduler(seed int64) Scheduler { return machine.NewRandom(seed) }

// NewSolo returns the contention-free scheduler running processes one at a
// time in the given order.
func NewSolo(order []int) Scheduler { return machine.NewSolo(order) }

// NewProgressFirst returns the scheduler that prefers processes whose next
// step changes their state (a polite cache-coherent machine).
func NewProgressFirst() Scheduler { return machine.NewProgressFirst() }

// NewHoldCS returns the adversary that starves the critical-section
// occupant for delay scheduling decisions (experiment E8).
func NewHoldCS(delay int) Scheduler { return machine.NewHoldCS(delay) }

// NewGreedyCost returns the cost-maximizing adversary: a one-step lookahead
// on a cloned system picks the process whose step maximizes incremental SC
// cost, with a starvation bound so canonical runs always complete. It is
// the strongest fixed policy and the completion tail of the schedule search
// behind experiment E13 and cmd/tournament.
func NewGreedyCost() Scheduler { return machine.NewGreedyCost() }

// NewSchedulerByName builds a scheduler from its name: "round-robin",
// "random", "solo", "progress-first", "hold-cs" or "greedy-cost". seed
// parameterizes "random"; n parameterizes "solo" (identity order) and
// "hold-cs" (delay).
func NewSchedulerByName(name string, n int, seed int64) (Scheduler, error) {
	sp, err := machine.NamedSpec(name, n, seed)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return sp.New()
}

// RunCanonical runs a canonical execution (every process completes exactly
// one critical section) under the scheduler.
func RunCanonical(a Algorithm, s Scheduler) (Execution, error) {
	return machine.RunCanonical(a, s, 0)
}

// MeasureCost replays the execution and reports its cost under every model.
func MeasureCost(a Algorithm, exec Execution) (CostReport, error) {
	return cost.Measure(a, exec)
}

// VerifyMutex checks the execution is a replayable, well-formed, mutually
// exclusive canonical execution of the algorithm.
func VerifyMutex(a Algorithm, exec Execution) error {
	return verify.MutexExecution(a, exec)
}

// Prove runs the paper's full pipeline (Construct → Encode → Decode) for
// one permutation with all theorem checks enabled.
func Prove(a Algorithm, pi []int) (*Proof, error) {
	return core.Run(a, pi)
}

// ProveAll runs the pipeline over all n! permutations (small n only) and
// checks the Theorem 7.5 injectivity.
func ProveAll(a Algorithm) (SweepStats, error) {
	return core.ExhaustiveSweep(a)
}

// ProveSample runs the pipeline over k seeded-random permutations.
func ProveSample(a Algorithm, k int, seed int64) (SweepStats, error) {
	return core.Sweep(a, perm.Sample(a.N(), k, seed))
}

// InformationBound returns log₂(n!): the bits any encoding scheme needs to
// distinguish all of S_n, and the source of the Ω(n log n).
func InformationBound(n int) float64 { return core.InformationBound(n) }

// NLogN returns n·log₂ n, the normalization used in cost-ratio reports.
func NLogN(n int) float64 { return perm.NLogN(n) }
