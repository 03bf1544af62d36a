package metastep_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metastep"
	"repro/internal/model"
)

func w(proc int, reg model.RegID, val model.Value) model.Step {
	return model.Step{Proc: proc, Kind: model.KindWrite, Reg: reg, Val: val}
}

func r(proc int, reg model.RegID) model.Step {
	return model.Step{Proc: proc, Kind: model.KindRead, Reg: reg}
}

func crit(proc int, k model.CritKind) model.Step {
	return model.Step{Proc: proc, Kind: model.KindCrit, Crit: k}
}

// buildDiamond creates a small set: c0 → mw (write metastep with a hidden
// write and a read) → c1, plus a preread pr ordered before mw.
func buildDiamond(t *testing.T) *metastep.Set {
	t.Helper()
	s := metastep.NewSet(3)
	c0 := s.NewCritMeta(crit(0, model.CritTry))
	pr := s.NewReadMeta(r(1, 0))
	mw := s.NewWriteMeta(w(0, 0, 7))
	s.JoinWrite(mw.ID, w(2, 0, 9))
	s.JoinRead(mw.ID, r(1, 0))
	s.SetPread(mw.ID, []metastep.ID{pr.ID})
	s.AddEdge(c0.ID, mw.ID)
	s.AddEdge(pr.ID, mw.ID)
	c1 := s.NewCritMeta(crit(0, model.CritEnter))
	s.AddEdge(mw.ID, c1.ID)
	return s
}

func TestMetaAccessors(t *testing.T) {
	s := buildDiamond(t)
	mw := s.Meta(2)
	if mw.Type != metastep.TypeWrite || mw.Value() != 7 || mw.Win.Proc != 0 {
		t.Fatalf("bad write metastep: %v", mw)
	}
	if got := mw.Owners(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("Owners = %v, want [0 1 2]", got)
	}
	if step, ok := mw.StepOf(2); !ok || step.Val != 9 {
		t.Fatalf("StepOf(2) = %v, %v", step, ok)
	}
	if _, ok := s.Meta(0).StepOf(1); ok {
		t.Fatal("crit metastep of process 0 should not contain process 1")
	}
	if mw.Size() != 3 {
		t.Fatalf("Size = %d, want 3", mw.Size())
	}
	if rd := s.Meta(1); rd.PreadOf != mw.ID {
		t.Fatalf("PreadOf = %v, want %v", rd.PreadOf, mw.ID)
	}
}

func TestChains(t *testing.T) {
	s := buildDiamond(t)
	// Process 0: c0, mw, c1. Process 1: pr, mw (joined read). Process 2: mw.
	if got := s.Chain(0); len(got) != 3 {
		t.Fatalf("chain(0) = %v", got)
	}
	if got := s.Chain(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("chain(1) = %v", got)
	}
	if got := s.Chain(2); len(got) != 1 || got[0] != 2 {
		t.Fatalf("chain(2) = %v", got)
	}
}

// ancestors returns {µ : µ ≼ m} computed afresh.
func ancestors(s *metastep.Set, m metastep.ID) []bool {
	anc, _ := s.ExtendAncestors(nil, m, nil)
	return anc
}

// TestExtendAncestors pins the ancestor set: m and everything ordered
// before it, sized to the whole set; grown from a smaller ancestor set it
// equals the fresh one, and its search stops at what is already marked.
func TestExtendAncestors(t *testing.T) {
	s := buildDiamond(t)
	anc := ancestors(s, 3) // c1
	for _, id := range []metastep.ID{0, 1, 2, 3} {
		if !anc[id] {
			t.Fatalf("m%d should precede c1", id)
		}
	}
	if pr := ancestors(s, 1); !pr[1] || pr[0] || pr[2] || pr[3] {
		t.Fatalf("ancestors of the preread = %v, want only itself", pr)
	}
	if none := ancestors(s, metastep.None); len(none) != s.Len() || none[0] || none[3] {
		t.Fatalf("ancestors of None = %v, want an all-false slice of full length", none)
	}

	grown, queue := s.ExtendAncestors(nil, 2, nil) // mw: {c0, pr, mw}
	grown, queue = s.ExtendAncestors(grown, 3, queue)
	if len(queue) != 1 || queue[0] != 3 {
		t.Fatalf("extending {c0, pr, mw} by c1 visited %v, want only c1", queue)
	}
	for id := range anc {
		if grown[id] != anc[id] {
			t.Fatalf("grown ancestor set %v differs from the fresh one %v", grown, anc)
		}
	}
	c2 := s.NewCritMeta(crit(0, model.CritExit))
	if grown, _ = s.ExtendAncestors(grown, metastep.None, queue); len(grown) != s.Len() || grown[c2.ID] {
		t.Fatalf("extending by None gave %v, want the same set grown to %d", grown, s.Len())
	}
}

// TestMaximal pins the maximal-candidate search: a candidate below another,
// directly or through other metasteps, is dropped; the rest come back in
// the order given, and the ancestor set the search borrows is restored.
func TestMaximal(t *testing.T) {
	s := metastep.NewSet(4)
	c0 := s.NewCritMeta(crit(0, model.CritTry))
	r1 := s.NewReadMeta(r(1, 0))
	x := s.NewCritMeta(crit(2, model.CritTry))
	r2 := s.NewReadMeta(r(2, 0))
	r3 := s.NewReadMeta(r(3, 0))
	s.AddEdge(c0.ID, r3.ID)
	s.AddEdge(r1.ID, x.ID) // r1 ≼ x ≼ r2, through a non-candidate
	s.AddEdge(x.ID, r2.ID)
	anc := ancestors(s, c0.ID)
	got, _ := s.Maximal([]metastep.ID{r3.ID, r1.ID, r2.ID}, anc, nil)
	if len(got) != 2 || got[0] != r3.ID || got[1] != r2.ID {
		t.Fatalf("Maximal = %v, want [m%d m%d]", got, r3.ID, r2.ID)
	}
	if want := ancestors(s, c0.ID); len(anc) != len(want) || anc[x.ID] || anc[r1.ID] || !anc[c0.ID] {
		t.Fatalf("Maximal left the ancestor set as %v, want %v", anc, want)
	}
}

// TestAncestrySearchesMatchPairwise checks both searches on random DAGs
// against their definitions: an ancestor set grown through a chain of
// metasteps equals the fresh set of the chain's last element, and Maximal
// keeps exactly the candidates outside the set that precede no other
// candidate.
func TestAncestrySearchesMatchPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		size := 2 + rng.Intn(30)
		s := metastep.NewSet(1)
		for id := 0; id < size; id++ {
			s.NewReadMeta(r(0, 0))
			for k := rng.Intn(3); k > 0 && id > 0; k-- {
				s.AddEdge(metastep.ID(rng.Intn(id)), metastep.ID(id))
			}
		}
		// A chain m_1 ≼ m_2 ≼ …: each step adds the edge old → new, as
		// generate's m′ does.
		var anc []bool
		var queue []metastep.ID
		last := metastep.None
		for step := 0; step < 4; step++ {
			next := metastep.ID(rng.Intn(size))
			if last != metastep.None {
				if ancestors(s, last)[next] {
					continue // the edge last → next would close a cycle
				}
				s.AddEdge(last, next)
			}
			last = next
			anc, queue = s.ExtendAncestors(anc, last, queue)
			if want := ancestors(s, last); !slices.Equal(anc, want) {
				t.Fatalf("trial %d: grown ancestor set %v, fresh %v", trial, anc, want)
			}
		}
		var cands []metastep.ID
		for id := 0; id < size; id++ {
			if !anc[id] && rng.Intn(2) == 0 {
				cands = append(cands, metastep.ID(id))
			}
		}
		var want []metastep.ID
		for _, c := range cands {
			isMax := true
			for _, d := range cands {
				if c != d && ancestors(s, d)[c] {
					isMax = false
				}
			}
			if isMax {
				want = append(want, c)
			}
		}
		before := append([]bool(nil), anc...)
		got, _ := s.Maximal(cands, anc, queue)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Maximal(%v) = %v, pairwise %v", trial, cands, got, want)
		}
		if !slices.Equal(anc, before) {
			t.Fatalf("trial %d: Maximal changed the ancestor set", trial)
		}
	}
}

func TestSeqOrdering(t *testing.T) {
	s := buildDiamond(t)
	mw := s.Meta(2)
	seq := metastep.Seq(mw, nil)
	if len(seq) != 3 {
		t.Fatalf("Seq length %d", len(seq))
	}
	// Non-winning writes first, winner second-to-last among writes, reads last.
	if seq[0].Kind != model.KindWrite || seq[0].Proc != 2 {
		t.Fatalf("first step %v, want hidden write by 2", seq[0])
	}
	if seq[1] != mw.Win {
		t.Fatalf("second step %v, want winning write", seq[1])
	}
	if seq[2].Kind != model.KindRead {
		t.Fatalf("last step %v, want read", seq[2])
	}
	// Random expansions keep the winner after all writes and before reads.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		sq := metastep.Seq(mw, rng)
		if sq[len(mw.Writes)] != mw.Win {
			t.Fatalf("random Seq misplaced the winner: %v", sq)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	s := buildDiamond(t)
	order, err := s.TopoOrder(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[metastep.ID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for id := 0; id < s.Len(); id++ {
		for _, succ := range s.Succs(metastep.ID(id)) {
			if pos[metastep.ID(id)] > pos[succ] {
				t.Fatalf("m%d after its successor m%d in %v", id, succ, order)
			}
		}
	}
}

// TestPlinSubset: Plin(M, ≼, m) of Figure 1 is LinSubset over m's
// ancestor set.
func TestPlinSubset(t *testing.T) {
	s := buildDiamond(t)
	exec, err := s.LinSubset(ancestors(s, 2), nil) // up to mw
	if err != nil {
		t.Fatal(err)
	}
	// c0 (1 step) + pr (1) + mw (3) = 5 steps; c1 excluded.
	if len(exec) != 5 {
		t.Fatalf("Plin(mw) has %d steps: %v", len(exec), exec)
	}
	for _, st := range exec {
		if st.Kind == model.KindCrit && st.Crit == model.CritEnter {
			t.Fatal("Plin(mw) must not contain c1's step")
		}
	}
	empty, err := s.LinSubset(ancestors(s, metastep.None), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("Plin(None) = %v, %v", empty, err)
	}
}

func TestCycleDetected(t *testing.T) {
	s := metastep.NewSet(1)
	a := s.NewCritMeta(crit(0, model.CritTry))
	b := s.NewCritMeta(crit(0, model.CritEnter))
	s.AddEdge(a.ID, b.ID)
	s.AddEdge(b.ID, a.ID)
	if err := s.CheckAcyclic(); err == nil {
		t.Fatal("cycle not detected")
	}
	if _, err := s.TopoOrder(nil, nil); err == nil {
		t.Fatal("TopoOrder should fail on a cycle")
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	s := metastep.NewSet(1)
	a := s.NewCritMeta(crit(0, model.CritTry))
	s.AddEdge(a.ID, a.ID)
	if err := s.CheckAcyclic(); err != nil {
		t.Fatalf("self edge should be ignored (reflexivity): %v", err)
	}
}

func TestDoublePreadPanics(t *testing.T) {
	s := metastep.NewSet(2)
	pr := s.NewReadMeta(r(0, 0))
	m1 := s.NewWriteMeta(w(1, 0, 1))
	m2 := s.NewWriteMeta(w(1, 0, 2))
	s.SetPread(m1.ID, []metastep.ID{pr.ID})
	defer func() {
		if recover() == nil {
			t.Fatal("second SetPread with the same read metastep should panic (Theorem 6.2 accounting)")
		}
	}()
	s.SetPread(m2.ID, []metastep.ID{pr.ID})
}

func TestJoinValidation(t *testing.T) {
	s := metastep.NewSet(2)
	mw := s.NewWriteMeta(w(0, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("joining a write on a different register should panic")
		}
	}()
	s.JoinWrite(mw.ID, w(1, 5, 2))
}

func TestCheckLinearizationAcceptsAndRejects(t *testing.T) {
	s := buildDiamond(t)
	good, err := s.Lin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckLinearization(good); err != nil {
		t.Fatalf("canonical linearization rejected: %v", err)
	}
	// Swapping the winning write before the hidden write breaks the Seq shape.
	bad := good.Clone()
	found := false
	for i := 0; i+1 < len(bad); i++ {
		if bad[i].Kind == model.KindWrite && bad[i+1].Kind == model.KindWrite {
			bad[i], bad[i+1] = bad[i+1], bad[i]
			found = true
			break
		}
	}
	if !found {
		t.Fatal("test setup: no adjacent writes")
	}
	if err := s.CheckLinearization(bad); err == nil {
		t.Fatal("winner-before-hidden-write accepted as a linearization")
	}
	// Dropping a step breaks coverage.
	if err := s.CheckLinearization(good[:len(good)-1]); err == nil {
		t.Fatal("truncated execution accepted")
	}
	// An order violating ≼ must be rejected: run c1's step first.
	rev := append(model.Execution{good[len(good)-1]}, good[:len(good)-1]...)
	if err := s.CheckLinearization(rev); err == nil {
		t.Fatal("predecessor-violating order accepted")
	}
}

func TestTotalSteps(t *testing.T) {
	s := buildDiamond(t)
	if got := s.TotalSteps(); got != 6 {
		t.Fatalf("TotalSteps = %d, want 6", got)
	}
}

func TestRandomLinearizationsAlwaysValid(t *testing.T) {
	s := buildDiamond(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		exec, err := s.Lin(rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckLinearization(exec); err != nil {
			t.Fatalf("random linearization %d rejected: %v\n%v", i, err, exec)
		}
	}
}
