package construct

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/metastep"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
)

// This file holds the literal form of Figure 1's Generate, in which every
// iteration takes e ← δ(Plin(M, ≼, m′), j) by re-linearizing the prefix
// and replaying it from s₀ on a fresh System, computes {µ ≼ m′} by a fresh
// search, and finds the maximal prereads by testing every pair. Construct
// keeps j's automaton and one growing ancestor set across iterations
// instead, and finds the maximal prereads in one search; the oracle test
// requires both to build the same metastep set. Every iteration inserts
// its step into the set and records its decision there (which metastep it
// joined or created, and the edge from m′), so equal sets mean every
// iteration agreed.

// ancestorsOf returns {µ : µ ≼ m} (m included; empty for None) as a
// boolean slice indexed by ID, by a fresh reverse breadth-first search over
// the explicit edges.
func ancestorsOf(s *metastep.Set, m metastep.ID) []bool {
	preds := make([][]metastep.ID, s.Len())
	for id := range preds {
		for _, b := range s.Succs(metastep.ID(id)) {
			preds[b] = append(preds[b], metastep.ID(id))
		}
	}
	anc := make([]bool, s.Len())
	if m == metastep.None {
		return anc
	}
	anc[m] = true
	queue := []metastep.ID{m}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range preds[cur] {
			if !anc[p] {
				anc[p] = true
				queue = append(queue, p)
			}
		}
	}
	return anc
}

// Reaches reports whether a ≼ b (a == b counts). It is exported for the
// lemma tests of package construct_test.
func Reaches(s *metastep.Set, a, b metastep.ID) bool {
	return a == b || ancestorsOf(s, b)[a]
}

// plin is procedure Plin(M, ≼, m) of Figure 1: the canonical linearization
// of {µ : µ ≼ m}, empty for m == None.
func plin(s *metastep.Set, m metastep.ID) (model.Execution, error) {
	if m == metastep.None {
		return nil, nil
	}
	return s.LinSubset(ancestorsOf(s, m), nil)
}

// literalMaximal returns the ≼-maximal elements among the candidates not in
// anc, testing every pair: a candidate is not maximal if it precedes
// another.
func literalMaximal(s *metastep.Set, candidates []metastep.ID, anc []bool) []metastep.ID {
	var unordered []metastep.ID
	for _, id := range candidates {
		if !anc[id] {
			unordered = append(unordered, id)
		}
	}
	var maximal []metastep.ID
	for _, c := range unordered {
		isMax := true
		for _, d := range unordered {
			if c != d && Reaches(s, c, d) {
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

// literalConstruct runs the n-stage construction with literalGenerate.
func literalConstruct(f program.Factory, pi []int) (*Result, error) {
	r := &Result{
		Set:     metastep.NewSet(f.N()),
		Perm:    append([]int(nil), pi...),
		Factory: f,
	}
	for stage, j := range pi {
		if err := literalGenerate(r, j); err != nil {
			return nil, fmt.Errorf("stage %d (process %d): %w", stage, j, err)
		}
		r.StageSets = append(r.StageSets, r.Set.Len())
	}
	return r, nil
}

// literalGenerate is Generate(M, ≼, j) replaying Plin(M, ≼, m′) on every
// iteration.
func literalGenerate(r *Result, j int) error {
	s := r.Set
	last := metastep.None // m′: the metastep modified or created last
	limit := maxIterations(s.N())

	for iter := 0; ; iter++ {
		if iter > limit {
			return fmt.Errorf("iteration limit %d exceeded", limit)
		}
		r.Iterations++

		// α ← Plin(M, ≼, m′); e ← δ(α, j).
		alpha, err := plin(s, last)
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

		anc := ancestorsOf(s, last)
		notOrdered := func(id metastep.ID) bool { return !anc[id] }

		switch e.Kind {
		case model.KindWrite:
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
				mr := literalMaximal(s, s.ReadsOn(e.Reg), anc)
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
				cur := rep.Registers().Read(e.Reg)
				if !aut.WouldChangeState(cur) {
					return fmt.Errorf("process %d would busywait forever on r%d=%d (livelock)", j, e.Reg, cur)
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

// TestConstructMatchesLiteralGenerate: the incremental Generate builds the
// same (M, ≼) in the same number of iterations as the literal one, for
// every register algorithm over all of S_n at n ≤ 5 and for E1's quick
// samples (perm.Sample at the experiments' default seed).
func TestConstructMatchesLiteralGenerate(t *testing.T) {
	check := func(f program.Factory, pi []int) {
		t.Helper()
		want, err := literalConstruct(f, pi)
		if err != nil {
			t.Fatalf("%s pi=%v: literal construction: %v", f.Name(), pi, err)
		}
		got, err := Construct(f, pi)
		if err != nil {
			t.Fatalf("%s pi=%v: %v", f.Name(), pi, err)
		}
		if got.Iterations != want.Iterations {
			t.Fatalf("%s pi=%v: %d iterations, literal took %d", f.Name(), pi, got.Iterations, want.Iterations)
		}
		if !reflect.DeepEqual(got.Set, want.Set) || !reflect.DeepEqual(got.StageSets, want.StageSets) {
			t.Fatalf("%s pi=%v: metastep set differs from the literal construction", f.Name(), pi)
		}
	}
	perms := 0
	for _, name := range mutex.Names() {
		for n := 1; n <= 5; n++ {
			if name == mutex.NameDekker && n != 2 {
				continue // Dekker's algorithm is two-process only
			}
			f, err := mutex.New(name, n)
			if err != nil {
				t.Fatal(err)
			}
			perm.ForEach(n, func(pi []int) bool {
				check(f, pi)
				perms++
				return true
			})
		}
	}
	const e1Seed = 20060723 // the experiments' default -seed; E1 draws at e1Seed+n
	for _, c := range []struct{ n, k int }{{8, 24}, {12, 12}} {
		f, err := mutex.New(mutex.NameYangAnderson, c.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, pi := range perm.Sample(c.n, c.k, e1Seed+int64(c.n)) {
			check(f, pi)
			perms++
		}
	}
	t.Logf("%d permutations agree", perms)
}
