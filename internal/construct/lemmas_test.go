package construct_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/construct"
	"repro/internal/machine"
	"repro/internal/metastep"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
)

// This file checks the construction's structural lemmas (Section 5.2/5.3)
// directly on constructed metastep sets, for all register algorithms over
// exhaustive small S_n and seeded larger samples.

func lemmaCases(t *testing.T) []*construct.Result {
	t.Helper()
	var out []*construct.Result
	rng := rand.New(rand.NewSource(55))
	for _, name := range []string{mutex.NameYangAnderson, mutex.NamePeterson, mutex.NameBakery, mutex.NameDijkstra, mutex.NameFilter} {
		for _, n := range []int{2, 3, 4} {
			f, err := mutex.New(name, n)
			if err != nil {
				t.Fatal(err)
			}
			pi := perm.Random(n, rng)
			res, err := construct.Construct(f, pi)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			out = append(out, res)
		}
	}
	// One larger instance.
	f, err := mutex.YangAnderson(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := construct.Construct(f, perm.Random(8, rng))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, res)
}

// TestLemma52PartialOrder: ≼_i is a partial order (the explicit edges form
// a DAG) — checked at every stage, not just the end.
func TestLemma52PartialOrder(t *testing.T) {
	f, err := mutex.YangAnderson(5)
	if err != nil {
		t.Fatal(err)
	}
	pi := []int{4, 2, 0, 3, 1}
	for stages := 0; stages <= 5; stages++ {
		res, err := construct.ConstructPartial(f, pi, stages)
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if err := res.Set.CheckAcyclic(); err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
	}
}

// TestLemma53WriteTotalOrder: for every register, the write metasteps are
// totally ordered by ≼, in creation order.
func TestLemma53WriteTotalOrder(t *testing.T) {
	for _, res := range lemmaCases(t) {
		s := res.Set
		regs := map[model.RegID]bool{}
		for id := 0; id < s.Len(); id++ {
			m := s.Meta(metastep.ID(id))
			if m.Type == metastep.TypeWrite {
				regs[m.Reg] = true
			}
		}
		for reg := range regs {
			writes := s.WritesOn(reg)
			for k := 0; k+1 < len(writes); k++ {
				if !construct.Reaches(s, writes[k], writes[k+1]) {
					t.Fatalf("%s pi=%v: writes on r%d not totally ordered: m%d ⋠ m%d",
						res.Factory.Name(), res.Perm, reg, writes[k], writes[k+1])
				}
			}
		}
	}
}

// TestProcessChainsAreChains: every process's metasteps are totally ordered
// (the property that makes "p's j'th metastep" — and hence the encoding's
// column layout — well defined).
func TestProcessChainsAreChains(t *testing.T) {
	for _, res := range lemmaCases(t) {
		s := res.Set
		for i := 0; i < s.N(); i++ {
			chain := s.Chain(i)
			for k := 0; k+1 < len(chain); k++ {
				if !construct.Reaches(s, chain[k], chain[k+1]) {
					t.Fatalf("%s pi=%v: process %d's chain not ordered at position %d",
						res.Factory.Name(), res.Perm, i, k)
				}
			}
		}
	}
}

// TestPrereadsPrecedeTheirWrite: every preread is ordered before its write
// metastep, and no read metastep is a preread of two writes.
func TestPrereadsPrecedeTheirWrite(t *testing.T) {
	for _, res := range lemmaCases(t) {
		s := res.Set
		owner := map[metastep.ID]metastep.ID{}
		for id := 0; id < s.Len(); id++ {
			m := s.Meta(metastep.ID(id))
			for _, pr := range m.Pread {
				if prev, dup := owner[pr]; dup {
					t.Fatalf("read metastep m%d is a preread of both m%d and m%d", pr, prev, m.ID)
				}
				owner[pr] = m.ID
				if !construct.Reaches(s, pr, m.ID) {
					t.Fatalf("preread m%d not ordered before m%d", pr, m.ID)
				}
				if back := s.Meta(pr).PreadOf; back != m.ID {
					t.Fatalf("PreadOf back-pointer of m%d is %d, want %d", pr, back, m.ID)
				}
			}
		}
	}
}

// TestLemma54AcrossStages: for i ≤ j ≤ k, process π_i's projection is
// identical in linearizations of (M_j, ≼_j) and (M_k, ≼_k) — lower-indexed
// processes cannot tell whether higher-indexed ones exist.
func TestLemma54AcrossStages(t *testing.T) {
	for _, name := range []string{mutex.NameYangAnderson, mutex.NameBakery} {
		n := 5
		f, err := mutex.New(name, n)
		if err != nil {
			t.Fatal(err)
		}
		pi := []int{2, 4, 1, 0, 3}
		projections := make([]map[int]string, n+1) // stage -> proc -> projection
		for stages := 1; stages <= n; stages++ {
			res, err := construct.ConstructPartial(f, pi, stages)
			if err != nil {
				t.Fatal(err)
			}
			alpha, err := res.Linearize()
			if err != nil {
				t.Fatal(err)
			}
			filled, _, err := machine.ReplayExecution(f, alpha)
			if err != nil {
				t.Fatal(err)
			}
			projections[stages] = map[int]string{}
			for s := 0; s < stages; s++ {
				projections[stages][pi[s]] = filled.Project(pi[s]).String()
			}
		}
		for j := 1; j <= n; j++ {
			for k := j + 1; k <= n; k++ {
				for s := 0; s < j; s++ {
					proc := pi[s]
					if projections[j][proc] != projections[k][proc] {
						t.Fatalf("%s: process %d distinguishes stage %d from stage %d (Lemma 5.4)\nstage %d: %s\nstage %d: %s",
							name, proc, j, k, j, projections[j][proc], k, projections[k][proc])
					}
				}
			}
		}
	}
}

// TestTheorem55AtEveryStage: in any linearization of (M_i, ≼_i), the first
// i processes of π complete their critical sections in π order.
func TestTheorem55AtEveryStage(t *testing.T) {
	f, err := mutex.New(mutex.NameYangAnderson, 5)
	if err != nil {
		t.Fatal(err)
	}
	pi := []int{3, 0, 4, 2, 1}
	for stages := 1; stages <= 5; stages++ {
		res, err := construct.ConstructPartial(f, pi, stages)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := res.Linearize()
		if err != nil {
			t.Fatal(err)
		}
		got := alpha.EntryOrder()
		if len(got) != stages {
			t.Fatalf("stages=%d: %d entries", stages, len(got))
		}
		for s := 0; s < stages; s++ {
			if got[s] != pi[s] {
				t.Fatalf("stages=%d: entry order %v, want prefix of %v", stages, got, pi)
			}
		}
	}
}

// TestEveryStepChargedInLinearizations: in a constructed linearization,
// every shared step changes the acting process's state (the accounting
// behind Theorem 6.2: cost equals the number of contained steps).
func TestEveryStepChargedInLinearizations(t *testing.T) {
	for _, res := range lemmaCases(t) {
		alpha, err := res.Linearize()
		if err != nil {
			t.Fatal(err)
		}
		shared := 0
		for _, s := range alpha {
			if s.IsShared() {
				shared++
			}
		}
		cost, err := res.Cost()
		if err != nil {
			t.Fatal(err)
		}
		if cost != shared {
			t.Fatalf("%s pi=%v: cost %d ≠ shared steps %d — some constructed step was free",
				res.Factory.Name(), res.Perm, cost, shared)
		}
	}
}

// TestConstructDeterministic: the construction is a deterministic function
// of (algorithm, π).
func TestConstructDeterministic(t *testing.T) {
	f, err := mutex.New(mutex.NameBakery, 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := []int{1, 3, 0, 2}
	a, err := construct.Construct(f, pi)
	if err != nil {
		t.Fatal(err)
	}
	b, err := construct.Construct(f, pi)
	if err != nil {
		t.Fatal(err)
	}
	la, err := a.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	if !la.Equal(lb) {
		t.Fatal("construction is nondeterministic")
	}
}

// TestConstructPartialValidation covers the stages bounds.
func TestConstructPartialValidation(t *testing.T) {
	f, err := mutex.New(mutex.NameYangAnderson, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, stages := range []int{-1, 4} {
		if _, err := construct.ConstructPartial(f, []int{0, 1, 2}, stages); err == nil {
			t.Fatalf("stages=%d accepted", stages)
		}
	}
	res, err := construct.ConstructPartial(f, []int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Len() != 0 {
		t.Fatalf("zero stages produced %d metasteps", res.Set.Len())
	}
}

func ExampleConstruct() {
	f, _ := mutex.YangAnderson(3)
	res, _ := construct.Construct(f, []int{2, 0, 1})
	alpha, _ := res.Linearize()
	fmt.Println("entries:", alpha.EntryOrder())
	// Output: entries: [2 0 1]
}
