package program_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/program"
)

// buildSpinner returns a program that spins on register 0 until it reads
// nonzero, then writes 1 to register 1 and halts.
func buildSpinner(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("spinner")
	x := b.Var("x")
	b.Spin(0, x, program.Ne(x, program.Const(0)))
	b.Write(1, program.Const(1))
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSpinStateUnchanged: the defining SC-model property — reading an
// unawaited value leaves the automaton state identical.
func TestSpinStateUnchanged(t *testing.T) {
	a := program.NewAutomaton(buildSpinner(t), 0)
	before := a.StateKey()
	step := a.PendingStep()
	if step.Kind != model.KindRead || step.Reg != 0 {
		t.Fatalf("pending %v, want read of r0", step)
	}
	for i := 0; i < 5; i++ {
		a.Feed(0) // value not awaited
		if got := a.StateKey(); got != before {
			t.Fatalf("state changed across a failed spin read: %q -> %q", before, got)
		}
	}
	a.Feed(7) // awaited
	if got := a.StateKey(); got == before {
		t.Fatal("state did not change when the awaited value arrived")
	}
	if next := a.PendingStep(); next.Kind != model.KindWrite || next.Reg != 1 {
		t.Fatalf("after spin, pending %v, want write r1", next)
	}
}

// TestWouldChangeState matches Feed behaviour exactly.
func TestWouldChangeState(t *testing.T) {
	a := program.NewAutomaton(buildSpinner(t), 0)
	if a.WouldChangeState(0) {
		t.Fatal("value 0 must not change state")
	}
	if !a.WouldChangeState(3) {
		t.Fatal("value 3 must change state")
	}
	// The oracle must not itself mutate state.
	if a.StateKey() != program.NewAutomaton(buildSpinner(t), 0).StateKey() {
		t.Fatal("WouldChangeState mutated the automaton")
	}
}

// TestCloneIndependence: clones evolve independently.
func TestCloneIndependence(t *testing.T) {
	a := program.NewAutomaton(buildSpinner(t), 0)
	c := a.Clone()
	c.Feed(9)
	if a.StateKey() == c.StateKey() {
		t.Fatal("clone shares state with the original")
	}
	if a.Proc() != c.Proc() {
		t.Fatal("clone lost its process index")
	}
}

// TestLocalFolding: Let/If/Goto run inside the transition function; the
// automaton only ever rests on shared or critical instructions.
func TestLocalFolding(t *testing.T) {
	b := program.NewBuilder("folding")
	x := b.Var("x")
	y := b.Var("y")
	b.Let(x, program.Const(21))
	b.Let(y, program.Add(x, x))
	b.Write(0, y)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := program.NewAutomaton(p, 2)
	step := a.PendingStep()
	if step.Kind != model.KindWrite || step.Val != 42 || step.Proc != 2 {
		t.Fatalf("pending %v, want write_2(r0,42)", step)
	}
	a.Feed(0)
	if !a.Halted() {
		t.Fatal("automaton should halt after the write")
	}
}

// TestMultiVarBusywaitChargesEveryRead: a two-register wait loop passes
// through distinct states (the program counter distinguishes the reads), so
// every read changes state — the SC model's single-variable-only rule.
func TestMultiVarBusywaitChargesEveryRead(t *testing.T) {
	b := program.NewBuilder("two-var-wait")
	f := b.Var("f")
	v := b.Var("v")
	b.Label("wait")
	b.Read(0, f)
	b.If(program.Eq(f, program.Const(0)), "done")
	b.Read(1, v)
	b.If(program.Eq(v, program.Const(1)), "wait")
	b.Label("done")
	b.Write(2, program.Const(1))
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := program.NewAutomaton(p, 0)
	// Drive the loop with unchanging values f=1, v=1: each read flips
	// between the two read sites, changing state every time.
	for i := 0; i < 6; i++ {
		before := a.StateKey()
		step := a.PendingStep()
		if step.Kind != model.KindRead {
			t.Fatalf("iteration %d: pending %v", i, step)
		}
		a.Feed(1)
		if a.StateKey() == before {
			t.Fatalf("iteration %d: two-variable busywait read did not change state", i)
		}
	}
}

// TestSingleVarReadIfLoopIsFree: the same loop on ONE register written with
// Read+If (not the Spin helper) still has the free-re-read property,
// because normalization returns to the identical state.
func TestSingleVarReadIfLoopIsFree(t *testing.T) {
	b := program.NewBuilder("manual-spin")
	x := b.Var("x")
	b.Label("loop")
	b.Read(0, x)
	b.If(program.Eq(x, program.Const(0)), "loop")
	b.Write(1, x)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := program.NewAutomaton(p, 0)
	before := a.StateKey()
	a.Feed(0)
	if a.StateKey() != before {
		t.Fatal("manual single-register spin read changed state on unchanged value")
	}
}

// TestIndirectAddressing: RegX computes the register from locals.
func TestIndirectAddressing(t *testing.T) {
	b := program.NewBuilder("indirect")
	i := b.Var("i")
	v := b.Var("v")
	b.Let(i, program.Const(5))
	b.ReadX(program.Add(i, program.Const(2)), v)
	b.WriteX(i, v)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := program.NewAutomaton(p, 0)
	if step := a.PendingStep(); step.Reg != 7 {
		t.Fatalf("indirect read resolves to r%d, want r7", step.Reg)
	}
	a.Feed(33)
	if step := a.PendingStep(); step.Reg != 5 || step.Val != 33 {
		t.Fatalf("indirect write resolves to %v, want write r5 <- 33", step)
	}
}

// TestBuilderErrors covers label and validation failures.
func TestBuilderErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		b := program.NewBuilder("bad")
		b.Goto("nowhere")
		b.Halt()
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for undefined label")
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		b := program.NewBuilder("bad")
		b.Label("l")
		b.Halt()
		b.Label("l")
		b.Halt()
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for duplicate label")
		}
	})
	t.Run("trailing label", func(t *testing.T) {
		b := program.NewBuilder("bad")
		b.Halt()
		b.Label("end")
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for label past the last instruction")
		}
	})
	t.Run("local cycle", func(t *testing.T) {
		b := program.NewBuilder("divergent")
		b.Label("l")
		b.Goto("l")
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for local-instruction cycle (diverging transition function)")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := program.NewBuilder("empty").Build(); err == nil {
			t.Fatal("want error for empty program")
		}
	})
	// Build compiles expressions, so it refuses at build time what the
	// interpreter could not evaluate at run time.
	deep := program.Expr(program.Const(1))
	for d := 1; d <= program.MaxExprDepth; d++ {
		deep = program.Not(deep)
	}
	for _, c := range []struct {
		name string
		expr program.Expr
	}{
		{"expression reads an unknown variable", program.Add(program.Const(1), program.VarRef{Index: 5, Name: "ghost"})},
		{"expression nests too deep", deep},
		{"nil expression", nil},
		{"unknown operator", program.BinExpr{Op: 99, L: program.Const(1), R: program.Const(2)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := program.NewBuilder("bad")
			b.Var("x")
			b.Write(0, c.expr)
			b.Halt()
			if _, err := b.Build(); err == nil {
				t.Fatalf("Build took %v", c.expr)
			}
		})
	}
}

// TestDisassemble sanity-checks the textual listing.
func TestDisassemble(t *testing.T) {
	p := buildSpinner(t)
	text := p.Disassemble()
	for _, want := range []string{"spinner", "read", "write r1", "halt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

// TestExprEvaluation covers every operator, including division by zero
// (total function semantics), on the compiled evaluator and on the tree
// oracle.
func TestExprEvaluation(t *testing.T) {
	env := []model.Value{6, 3, 0}
	x := program.VarRef{Index: 0, Name: "x"}
	y := program.VarRef{Index: 1, Name: "y"}
	z := program.VarRef{Index: 2, Name: "z"}
	cases := []struct {
		expr program.Expr
		want model.Value
	}{
		{program.Add(x, y), 9},
		{program.Sub(x, y), 3},
		{program.Mul(x, y), 18},
		{program.BinExpr{Op: program.OpDiv, L: x, R: y}, 2},
		{program.BinExpr{Op: program.OpDiv, L: x, R: z}, 0}, // total: no panic
		{program.BinExpr{Op: program.OpMod, L: x, R: z}, 0},
		{program.BinExpr{Op: program.OpMod, L: x, R: program.Const(4)}, 2},
		{program.Eq(x, program.Const(6)), 1},
		{program.Ne(x, y), 1},
		{program.Lt(y, x), 1},
		{program.Le(x, x), 1},
		{program.Gt(y, x), 0},
		{program.Ge(z, y), 0},
		{program.And(x, z), 0},
		{program.Or(z, y), 1},
		{program.Not(z), 1},
		{program.Not(x), 0},
	}
	for _, c := range cases {
		if got := flatEval(t, env, c.expr); got != c.want {
			t.Errorf("%s = %d, want %d", c.expr, got, c.want)
		}
		if got := treeEval(c.expr, env); got != c.want {
			t.Errorf("tree oracle: %s = %d, want %d", c.expr, got, c.want)
		}
	}
}

// TestExprComparisonProperties: quick-check the comparison operators agree
// with Go's.
func TestExprComparisonProperties(t *testing.T) {
	err := quick.Check(func(a, b int64) bool {
		env := []model.Value{a, b}
		x := program.VarRef{Index: 0, Name: "a"}
		y := program.VarRef{Index: 1, Name: "b"}
		return flatEval(t, env, program.Lt(x, y)) == boolVal(a < b) &&
			flatEval(t, env, program.Le(x, y)) == boolVal(a <= b) &&
			flatEval(t, env, program.Eq(x, y)) == boolVal(a == b) &&
			flatEval(t, env, program.Add(x, y)) == a+b
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func boolVal(b bool) model.Value {
	if b {
		return 1
	}
	return 0
}

// TestStateKeyInjective: quick-check different (pc-reachable) variable
// values give different keys.
func TestStateKeyInjective(t *testing.T) {
	p := buildSpinner(t)
	err := quick.Check(func(v1, v2 int64) bool {
		if v1 == v2 {
			return true
		}
		if v1 == 0 || v2 == 0 {
			return true // 0 does not advance the spin
		}
		a1 := program.NewAutomaton(p, 0)
		a2 := program.NewAutomaton(p, 0)
		a1.Feed(v1)
		a2.Feed(v2)
		return a1.StateKey() != a2.StateKey()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPendingStepPure: repeated PendingStep calls neither mutate state nor
// disagree with each other.
func TestPendingStepPure(t *testing.T) {
	a := program.NewAutomaton(buildSpinner(t), 0)
	s1 := a.PendingStep()
	k1 := a.StateKey()
	s2 := a.PendingStep()
	if s1 != s2 || a.StateKey() != k1 {
		t.Fatal("PendingStep is not pure")
	}
}

// TestHaltedPanics: using a halted automaton is a programming error.
func TestHaltedPanics(t *testing.T) {
	b := program.NewBuilder("quick-halt")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := program.NewAutomaton(p, 0)
	if !a.Halted() {
		t.Fatal("automaton should halt immediately")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PendingStep on halted automaton should panic")
		}
	}()
	a.PendingStep()
}

// TestProgramUsesRMW detects RMW instructions.
func TestProgramUsesRMW(t *testing.T) {
	b := program.NewBuilder("with-rmw")
	x := b.Var("x")
	b.RMW(model.RMWTestAndSet, 0, nil, nil, x)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !program.ProgramUsesRMW(p) {
		t.Fatal("RMW not detected")
	}
	if program.ProgramUsesRMW(buildSpinner(t)) {
		t.Fatal("false RMW detection")
	}
}
