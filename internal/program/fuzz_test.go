package program_test

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/program"
)

// randomProgram builds a random but structurally valid program: a mix of
// reads, writes, RMWs, critical steps, local assignments, forward branches
// and a terminal halt.
// Backward branches are only emitted around a read (so every loop contains
// a shared step and the local-cycle validator stays satisfied).
func randomProgram(rng *rand.Rand, regs int) *program.Program {
	b := program.NewBuilder("fuzz")
	vars := []program.VarRef{b.Var("a"), b.Var("b"), b.Var("c")}
	rv := func() program.VarRef { return vars[rng.Intn(len(vars))] }
	re := func() program.Expr {
		switch rng.Intn(3) {
		case 0:
			return program.Const(int64(rng.Intn(7)))
		case 1:
			return rv()
		default:
			return program.Add(rv(), program.Const(int64(rng.Intn(5))))
		}
	}
	reg := func() model.RegID { return model.RegID(rng.Intn(regs)) }

	blocks := 3 + rng.Intn(5)
	for k := 0; k < blocks; k++ {
		switch rng.Intn(6) {
		case 0:
			b.Read(reg(), rv())
		case 1:
			b.Write(reg(), re())
		case 2:
			b.Let(rv(), re())
		case 3:
			// A bounded spin: wait until the register is below 7, which
			// the all-zero register file satisfies immediately on replay,
			// but which still exercises the spin machinery.
			v := rv()
			b.Spin(reg(), v, program.Lt(v, program.Const(7)))
		case 4:
			b.RMW(model.RMWKind(rng.Intn(4)), reg(), re(), re(), rv())
		case 5:
			b.Crit(model.CritKind(rng.Intn(4)))
		}
	}
	b.Halt()
	return b.MustBuild()
}

// TestFuzzInterpreterInvariants drives random programs with random register
// contents and checks the interpreter's structural invariants:
//
//   - PendingStep is pure and stable between Feeds;
//   - Clone produces an equal StateKey and diverges independently;
//   - the automaton state is always normalized (pending step is shared);
//   - replaying the same value sequence gives identical state trajectories.
func TestFuzzInterpreterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const regs = 4
	for trial := 0; trial < 200; trial++ {
		p := randomProgram(rng, regs)
		a1 := program.NewAutomaton(p, 0)
		a2 := program.NewAutomaton(p, 0)
		if a1.StateKey() != a2.StateKey() {
			t.Fatal("fresh automata differ")
		}
		var fed []model.Value
		for step := 0; step < 60 && !a1.Halted(); step++ {
			s1 := a1.PendingStep()
			if s1 != a1.PendingStep() {
				t.Fatal("PendingStep unstable")
			}
			if !s1.IsShared() && s1.Kind != model.KindCrit {
				t.Fatalf("non-normalized pending step %v", s1)
			}
			c := a1.Clone()
			if c.StateKey() != a1.StateKey() {
				t.Fatal("clone key differs")
			}
			v := model.Value(rng.Intn(9))
			fed = append(fed, v)
			a1.Feed(v)
			// The clone must be unaffected by the original's Feed.
			if c.Halted() != false && !a1.Halted() {
				t.Fatal("clone halted spuriously")
			}
		}
		// Replay the same values through a2: trajectories must agree.
		for _, v := range fed {
			if a2.Halted() {
				t.Fatal("replay halted early")
			}
			a2.Feed(v)
		}
		if a1.StateKey() != a2.StateKey() || a1.Halted() != a2.Halted() {
			t.Fatalf("trial %d: same inputs, different states:\n%s\n%s\n%s", trial, a1.StateKey(), a2.StateKey(), p.Disassemble())
		}
	}
}

// TestFuzzSpinFreedom: for random programs and every pending step kind,
// WouldChangeState(v) answers exactly whether Feed(v) changes the StateKey
// (Definition 3.1 as an executable invariant), and asking leaves the state
// as it was.
func TestFuzzSpinFreedom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[model.Kind]int{}
	for trial := 0; trial < 200; trial++ {
		p := randomProgram(rng, 3)
		a := program.NewAutomaton(p, 1)
		for step := 0; step < 50 && !a.Halted(); step++ {
			kind := a.PendingStep().Kind
			v := model.Value(rng.Intn(10))
			before := a.StateKey()
			would := a.WouldChangeState(v)
			if got := a.StateKey(); got != before {
				t.Fatalf("trial %d: WouldChangeState(%d) on a %v step moved the state %q -> %q\n%s", trial, v, kind, before, got, p.Disassemble())
			}
			a.Feed(v)
			if changed := a.StateKey() != before; changed != would {
				t.Fatalf("trial %d: WouldChangeState(%d)=%v on a %v step but Feed changed=%v\n%s", trial, v, would, kind, changed, p.Disassemble())
			}
			seen[kind]++
		}
	}
	for _, kind := range []model.Kind{model.KindRead, model.KindWrite, model.KindRMW, model.KindCrit} {
		if seen[kind] == 0 {
			t.Errorf("no %v step was checked", kind)
		}
	}
}
