package program_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
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

// exprConsts are the literals FuzzCompiledExpr's trees and environments
// draw from: small values, and the extremes where Go's integer division
// and multiplication wrap.
var exprConsts = [16]model.Value{0, 1, -1, 2, -2, 3, 7, 64, -64, 1 << 31, -(1 << 31), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 12345}

// exprVars is how many variables FuzzCompiledExpr's expressions read.
const exprVars = 4

// decodeExpr reads an expression tree from the front of data, one byte
// per node in prefix order, and returns the bytes it did not use. Byte b
// selects by b%16: a BinExpr with operator b%16 (0–12), a NotExpr (13),
// the literal exprConsts[b/16] (14) or the variable (b/16)%exprVars (15).
// A node at depth program.MaxExprDepth, or past the end of data, is a
// leaf, so the tree nests at most that deep.
func decodeExpr(data []byte, depth int) (program.Expr, []byte) {
	if len(data) == 0 {
		return program.Const(0), data
	}
	b := data[0]
	data = data[1:]
	kind := b % 16
	if depth >= program.MaxExprDepth && kind < 14 {
		kind = 14 + b/16%2
	}
	switch {
	case kind <= 12:
		l, data := decodeExpr(data, depth+1)
		r, data := decodeExpr(data, depth+1)
		return program.BinExpr{Op: program.BinOp(kind), L: l, R: r}, data
	case kind == 13:
		e, data := decodeExpr(data, depth+1)
		return program.Not(e), data
	case kind == 14:
		return program.Const(exprConsts[b/16]), data
	default:
		ix := int(b/16) % exprVars
		return program.VarRef{Index: ix, Name: "v" + strconv.Itoa(ix)}, data
	}
}

// exprDepth returns how deeply e nests, a leaf counting as one level.
func exprDepth(e program.Expr) int {
	switch e := e.(type) {
	case program.BinExpr:
		return 1 + max(exprDepth(e.L), exprDepth(e.R))
	case program.NotExpr:
		return 1 + exprDepth(e.E)
	}
	return 1
}

// FuzzCompiledExpr decodes its bytes into an expression tree over every
// BinOp (division and modulus by zero included) and Not, nested up to
// program.MaxExprDepth, and checks on random environments that the
// compiled evaluator agrees with the tree oracle. The compiled program
// must give the tree back (Program.Instr), and Build must refuse the same
// tree wrapped in Nots past MaxExprDepth rather than let the evaluation
// stack overflow at run time.
func FuzzCompiledExpr(f *testing.F) {
	f.Add([]byte{0x0f, 0x1e}, int64(1))                                     // v0 + 1
	f.Add([]byte{0x03, 0x0f, 0x0e}, int64(2))                               // v0 / 0
	f.Add([]byte{0x04, 0xce, 0x2e}, int64(3))                               // MinInt64 % -1
	f.Add([]byte{0x0d, 0x05, 0x1f, 0x0e}, int64(4))                         // !(v1 == 0)
	f.Add(bytes.Repeat([]byte{0x00, 0x0f}, program.MaxExprDepth), int64(5)) // right-deep chain at the bound
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		e, _ := decodeExpr(data, 1)
		depth := exprDepth(e)
		if depth > program.MaxExprDepth {
			t.Fatalf("decoded %s nests %d deep, past the bound %d", e, depth, program.MaxExprDepth)
		}
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			env := make([]model.Value, exprVars)
			for i := range env {
				if rng.Intn(2) == 0 {
					env[i] = exprConsts[rng.Intn(len(exprConsts))]
				} else {
					env[i] = model.Value(rng.Intn(21) - 10)
				}
			}
			if got, want := flatEval(t, env, e), treeEval(e, env); got != want {
				t.Fatalf("%s in %v: compiled %d, tree %d", e, env, got, want)
			}
		}

		b := program.NewBuilder("roundtrip")
		for i := 0; i < exprVars; i++ {
			b.Var("v" + strconv.Itoa(i))
		}
		b.Write(0, e)
		b.Halt()
		if back := b.MustBuild().Instr(0).Val; !reflect.DeepEqual(back, e) {
			t.Fatalf("compiled %s reads back as %s", e, back)
		}

		deep := e
		for d := depth; d <= program.MaxExprDepth; d++ {
			deep = program.Not(deep)
		}
		if _, err := flatEvalErr(make([]model.Value, exprVars), deep); err == nil || !strings.Contains(err.Error(), "deeper") {
			t.Fatalf("Build took %s, %d levels deep, past the bound %d (err %v)", deep, exprDepth(deep), program.MaxExprDepth, err)
		}
	})
}
