// Package construct implements the construction step of the lower bound
// proof (Section 5, Figure 1): given a livelock-free mutual exclusion
// algorithm A and a permutation π ∈ S_n, it builds a set of metasteps M and
// partial order ≼ whose every linearization is an execution of A in which
// the n processes each complete one critical section, in exactly the order
// π — while every process remains invisible to all lower-indexed (in π)
// processes.
//
// Invisibility is achieved by the two insertion rules of Figure 1:
//
//   - a higher-indexed process's write is inserted as a non-winning write
//     into the minimum not-yet-ordered write metastep on the same register,
//     so a lower-indexed process's write immediately overwrites it;
//   - a higher-indexed process's read is inserted into the minimum
//     not-yet-ordered write metastep whose value would change the reader's
//     state (the SC oracle), so the read happens after that write and the
//     reader never observes intermediate values; standalone reads become
//     prereads ordered before the next write metastep on the register.
//
// The package requires the algorithm to use only registers (the paper's
// model); factories using RMW primitives are rejected.
package construct

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/metastep"
	"repro/internal/model"
	"repro/internal/perm"
	"repro/internal/program"
)

// ErrRMW is returned when the algorithm uses read-modify-write primitives,
// which are outside the register-only model of the lower bound.
var ErrRMW = errors.New("construct: algorithm uses RMW primitives; the lower-bound construction requires registers only")

// Result is the output of the construction: the metastep set with its
// partial order, and bookkeeping used by encoding and the experiments.
type Result struct {
	// Set is (M, ≼) after the final stage.
	Set *metastep.Set
	// Perm is the permutation π the construction was run for.
	Perm []int
	// Factory is the algorithm A.
	Factory program.Factory
	// StageSets[i] is a snapshot boundary: the number of metasteps that
	// existed after stage i (prefix counts into Set). Metasteps are only
	// appended and joined, never removed, so Set restricted to IDs below
	// StageSets[i] is NOT (M_i, ≼_i) — later stages may join existing
	// metasteps — but the count is useful diagnostics.
	StageSets []int
	// Iterations is the total number of Generate loop iterations.
	Iterations int
}

// maxIterations bounds one process's Generate loop. A livelock-free
// algorithm terminates (Section 5.1): exceeding the bound means the
// algorithm or the construction is broken.
func maxIterations(n int) int { return 4000 + 400*n }

// Construct runs the n-stage construction (Figure 1, procedure Construct)
// for algorithm f and permutation pi.
func Construct(f program.Factory, pi []int) (*Result, error) {
	return ConstructPartial(f, pi, len(pi))
}

// ConstructPartial runs only the first `stages` stages, producing
// (M_i, ≼_i) for i = stages: the intermediate objects of Section 5 that
// Lemma 5.4 and Theorem 5.5 quantify over. Construct is the stages = n
// case.
func ConstructPartial(f program.Factory, pi []int, stages int) (*Result, error) {
	if f.UsesRMW() {
		return nil, ErrRMW
	}
	n := f.N()
	if len(pi) != n || !perm.IsPermutation(pi) {
		return nil, fmt.Errorf("construct: pi=%v is not a permutation of 0..%d", pi, n-1)
	}
	if stages < 0 || stages > n {
		return nil, fmt.Errorf("construct: stages=%d out of range [0,%d]", stages, n)
	}
	r := &Result{
		Set:     metastep.NewSet(n),
		Perm:    append([]int(nil), pi...),
		Factory: f,
	}
	for stage := 0; stage < stages; stage++ {
		if err := r.generate(pi[stage]); err != nil {
			return nil, fmt.Errorf("construct: stage %d (process %d): %w", stage, pi[stage], err)
		}
		r.StageSets = append(r.StageSets, r.Set.Len())
	}
	if err := r.Set.CheckAcyclic(); err != nil {
		return nil, fmt.Errorf("construct: %w (Lemma 5.2 violated)", err)
	}
	return r, nil
}

// generate implements procedure Generate(M, ≼, j) of Figure 1: it runs
// process j against the current metastep set until j completes its critical
// and exit sections (its rem step), inserting j's steps so that j stays
// invisible to the processes already in the set.
func (r *Result) generate(j int) error {
	s := r.Set
	last := metastep.None // m′: the metastep modified or created last
	limit := maxIterations(s.N())

	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("iteration limit %d exceeded; algorithm may not be livelock-free in the constructed schedule", limit)
		}
		r.Iterations++

		// α ← Plin(M, ≼, m′); e ← δ(α, j).
		alpha, err := s.Plin(last, nil)
		if err != nil {
			return err
		}
		rep := machine.NewSystem(r.Factory)
		for t, step := range alpha {
			if _, _, err := rep.Replay(step); err != nil {
				return fmt.Errorf("replaying Plin prefix at step %d: %w", t, err)
			}
		}
		if rep.Halted(j) {
			return fmt.Errorf("process %d halted before performing rem", j)
		}
		e := rep.PendingStep(j)

		anc := s.AncestorsOf(last)
		notOrdered := func(id metastep.ID) bool { return !anc[id] }

		switch e.Kind {
		case model.KindWrite:
			// mw ← min write metastep on ℓ with µ ⋠ m′ (they are totally
			// ordered in creation order, Lemma 5.3).
			mw := metastep.None
			for _, id := range s.WritesOn(e.Reg) {
				if notOrdered(id) {
					mw = id
					break
				}
			}
			if mw != metastep.None {
				s.JoinWrite(mw, e)
				if last != metastep.None {
					s.AddEdge(last, mw)
				}
				last = mw
			} else {
				m := s.NewWriteMeta(e)
				// Mr ← maximal read metasteps on ℓ with µ ⋠ m′: they become
				// prereads, ordered before m, so their readers never see
				// the new value.
				mr := r.maximalUnordered(s.ReadsOn(e.Reg), anc)
				if len(mr) > 0 {
					s.SetPread(m.ID, mr)
					for _, µ := range mr {
						s.AddEdge(µ, m.ID)
					}
				}
				if last != metastep.None {
					s.AddEdge(last, m.ID)
				}
				last = m.ID
			}

		case model.KindRead:
			// msw ← min write metastep on ℓ with µ ⋠ m′ whose value would
			// change p_j's state (the SC oracle of Figure 1).
			msw := metastep.None
			aut := rep.Automaton(j)
			for _, id := range s.WritesOn(e.Reg) {
				if !notOrdered(id) {
					continue
				}
				if aut.WouldChangeState(s.Meta(id).Value()) {
					msw = id
					break
				}
			}
			if msw != metastep.None {
				s.JoinRead(msw, e)
				if last != metastep.None {
					s.AddEdge(last, msw)
				}
				last = msw
			} else {
				// No future write changes p_j's state: p_j reads the
				// current value. Livelock freedom guarantees this read
				// itself changes p_j's state (else it would be stuck
				// forever); verify it to fail fast on broken inputs.
				cur := rep.Registers().Read(e.Reg)
				if !aut.WouldChangeState(cur) {
					return fmt.Errorf("process %d would busywait forever on r%d=%d with no future write changing its state (livelock)", j, e.Reg, cur)
				}
				m := s.NewReadMeta(e)
				if last != metastep.None {
					s.AddEdge(last, m.ID)
				}
				last = m.ID
			}

		case model.KindCrit:
			m := s.NewCritMeta(e)
			if last != metastep.None {
				s.AddEdge(last, m.ID)
			}
			last = m.ID
			if e.Crit == model.CritRem {
				return nil
			}

		default:
			return ErrRMW
		}
	}
}

// maximalUnordered returns the ≼-maximal elements among the candidates not
// in anc. A candidate is non-maximal if it precedes another candidate.
func (r *Result) maximalUnordered(candidates []metastep.ID, anc []bool) []metastep.ID {
	var unordered []metastep.ID
	for _, id := range candidates {
		if !anc[id] {
			unordered = append(unordered, id)
		}
	}
	if len(unordered) <= 1 {
		return unordered
	}
	maximal := make([]metastep.ID, 0, len(unordered))
	for _, c := range unordered {
		isMax := true
		for _, d := range unordered {
			if c != d && r.Set.Reaches(c, d) {
				isMax = false
				break
			}
		}
		if isMax {
			maximal = append(maximal, c)
		}
	}
	return maximal
}

// Linearize returns the canonical linearization α_π of the constructed
// (M, ≼).
func (r *Result) Linearize() (model.Execution, error) {
	return r.Set.Lin(nil)
}

// Cost returns the state change cost C(α) of the canonical linearization.
// By Lemma 6.1 every linearization has the same cost; tests check this.
func (r *Result) Cost() (int, error) {
	alpha, err := r.Linearize()
	if err != nil {
		return 0, err
	}
	_, sc, err := machine.ReplayExecution(r.Factory, alpha)
	if err != nil {
		return 0, err
	}
	return sc, nil
}
