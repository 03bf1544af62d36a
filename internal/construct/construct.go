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

	"repro/internal/cost"
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

	sc int // C(α) of the canonical linearization, measured by ConstructPartial
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
	var a ancestry
	for stage := 0; stage < stages; stage++ {
		if err := r.generate(pi[stage], &a); err != nil {
			return nil, fmt.Errorf("construct: stage %d (process %d): %w", stage, pi[stage], err)
		}
		r.StageSets = append(r.StageSets, r.Set.Len())
	}
	if err := r.Set.CheckAcyclic(); err != nil {
		return nil, fmt.Errorf("construct: %w (Lemma 5.2 violated)", err)
	}
	// generate tracks only the process it inserts; replaying the canonical
	// linearization once checks that the whole set is an execution of A.
	alpha, err := r.Linearize()
	if err != nil {
		return nil, fmt.Errorf("construct: %w", err)
	}
	rep, err := cost.Measure(f, alpha)
	if err != nil {
		return nil, fmt.Errorf("construct: canonical linearization: %w", err)
	}
	r.sc = rep.SC
	return r, nil
}

// ancestry is generate's ancestor set {µ : µ ≼ m′}, indexed by metastep
// ID, and the queue its searches share. ConstructPartial reuses the
// storage from stage to stage.
type ancestry struct {
	anc   []bool
	queue []metastep.ID
}

// generate implements procedure Generate(M, ≼, j) of Figure 1: it runs
// process j against the current metastep set until j completes its critical
// and exit sections (its rem step), inserting j's steps so that j stays
// invisible to the processes already in the set.
//
// Figure 1 takes e ← δ(Plin(M, ≼, m′), j) on every iteration. Replaying
// that prefix from s₀ each time would cost O(iterations × prefix); instead
// j's automaton persists across iterations and is fed, after each
// iteration, exactly what j's step returns in that replay:
//
//   - 0 after a write or critical step (their results are ignored);
//   - val(msw) after a read joined into write metastep msw, because Seq
//     expands the reads of a write metastep after its winning write;
//   - after a read that becomes a new read metastep, the value ℓ holds at
//     the end of Plin(M, ≼, m′): that of the highest-ID write metastep on
//     ℓ among m′'s ancestors, or ℓ's initial value if there is none.
//     Lemma 5.3 orders the write metasteps on one register by creation,
//     and the ancestor set is downward closed, so the ancestors among them
//     are a creation-order prefix whose last element is written last.
//
// Every step of j lies in m′'s ancestor set (each new or joined metastep is
// ordered after the previous m′), the other processes' steps reach j only
// through the values it reads, and by Lemma 5.4 those values are the same
// in every linearization. So the automaton is in the state the replay
// would leave j in; a test keeps the literal replay as an oracle, and
// ConstructPartial replays the finished set's canonical linearization once
// to check the whole construction.
//
// The ancestor set {µ ≼ m′} is kept the same way, grown instead of
// recomputed. Each iteration adds the edge old m′ → new m′, so the new set
// contains the old one. Every edge generate adds ends in a metastep
// outside the set: mw and msw are chosen among µ ⋠ m′, and the other
// targets are new. So no member's own ancestors ever change, the set stays
// downward closed, and extending it by a reverse search from the new m′
// that stops at marked metasteps visits each metastep once per stage.
func (r *Result) generate(j int, a *ancestry) error {
	s := r.Set
	aut := program.NewAutomaton(r.Factory.Program(j), j)
	regs := r.Factory.NumRegisters()
	last := metastep.None // m′: the metastep modified or created last
	limit := maxIterations(s.N())
	a.anc = a.anc[:0] // {µ ≼ None} is empty

	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("iteration limit %d exceeded; algorithm may not be livelock-free in the constructed schedule", limit)
		}
		r.Iterations++

		// e ← δ(Plin(M, ≼, m′), j), read off j's automaton.
		if aut.Halted() {
			return fmt.Errorf("process %d halted before performing rem", j)
		}
		e := aut.PendingStep()
		if e.IsShared() && (e.Reg < 0 || int(e.Reg) >= regs) {
			return fmt.Errorf("process %d: register %d out of range [0,%d)", j, e.Reg, regs)
		}

		a.anc, a.queue = s.ExtendAncestors(a.anc, last, a.queue)
		anc := a.anc
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
				mr := r.maximalUnordered(s.ReadsOn(e.Reg), a)
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
			aut.Feed(0)

		case model.KindRead:
			// msw ← min write metastep on ℓ with µ ⋠ m′ whose value would
			// change p_j's state (the SC oracle of Figure 1).
			msw := metastep.None
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
				aut.Feed(s.Meta(msw).Value())
			} else {
				// No future write changes p_j's state: p_j reads the
				// current value. Livelock freedom guarantees this read
				// itself changes p_j's state (else it would be stuck
				// forever); verify it to fail fast on broken inputs.
				cur := r.current(e.Reg, anc)
				if !aut.WouldChangeState(cur) {
					return fmt.Errorf("process %d would busywait forever on r%d=%d with no future write changing its state (livelock)", j, e.Reg, cur)
				}
				m := s.NewReadMeta(e)
				if last != metastep.None {
					s.AddEdge(last, m.ID)
				}
				last = m.ID
				aut.Feed(cur)
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
			aut.Feed(0)

		default:
			return ErrRMW
		}
	}
}

// current returns the value register reg holds at the end of any
// linearization of anc, an ancestor set {µ : µ ≼ m′}: the value of the
// latest (highest-ID, Lemma 5.3) write metastep on reg in anc, or reg's
// initial value when anc holds none.
func (r *Result) current(reg model.RegID, anc []bool) model.Value {
	ws := r.Set.WritesOn(reg)
	for k := len(ws) - 1; k >= 0; k-- {
		if anc[ws[k]] {
			return r.Set.Meta(ws[k]).Value()
		}
	}
	if init := r.Factory.InitialValues(); init != nil {
		return init[reg]
	}
	return 0
}

// maximalUnordered returns the ≼-maximal elements among the candidates not
// in the ancestor set, in the candidates' order.
func (r *Result) maximalUnordered(candidates []metastep.ID, a *ancestry) []metastep.ID {
	var unordered []metastep.ID
	for _, id := range candidates {
		if !a.anc[id] {
			unordered = append(unordered, id)
		}
	}
	if len(unordered) <= 1 {
		return unordered
	}
	var maximal []metastep.ID
	maximal, a.queue = r.Set.Maximal(unordered, a.anc, a.queue)
	return maximal
}

// Linearize returns the canonical linearization α_π of the constructed
// (M, ≼).
func (r *Result) Linearize() (model.Execution, error) {
	return r.Set.Lin(nil)
}

// Cost returns the state change cost C(α) of the canonical linearization,
// which ConstructPartial replayed to check the set. By Lemma 6.1 every
// linearization has the same cost; tests check this.
func (r *Result) Cost() (int, error) {
	return r.sc, nil
}
