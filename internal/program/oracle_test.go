package program_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
)

// This file keeps the interpreter as it was before programs were compiled
// into flat ops: expressions evaluated as trees, instructions read as
// Instr values. It is the oracle the compiled form is checked against.

// treeEval evaluates e as a tree, the way Expr.Eval did: division and
// modulus by zero yield zero.
func treeEval(e program.Expr, env []model.Value) model.Value {
	switch e := e.(type) {
	case program.ConstExpr:
		return e.V
	case program.VarRef:
		return env[e.Index]
	case program.NotExpr:
		return boolVal(treeEval(e.E, env) == 0)
	case program.BinExpr:
		l, r := treeEval(e.L, env), treeEval(e.R, env)
		switch e.Op {
		case program.OpAdd:
			return l + r
		case program.OpSub:
			return l - r
		case program.OpMul:
			return l * r
		case program.OpDiv:
			if r == 0 {
				return 0
			}
			return l / r
		case program.OpMod:
			if r == 0 {
				return 0
			}
			return l % r
		case program.OpEq:
			return boolVal(l == r)
		case program.OpNe:
			return boolVal(l != r)
		case program.OpLt:
			return boolVal(l < r)
		case program.OpLe:
			return boolVal(l <= r)
		case program.OpGt:
			return boolVal(l > r)
		case program.OpGe:
			return boolVal(l >= r)
		case program.OpAnd:
			return boolVal(l != 0 && r != 0)
		case program.OpOr:
			return boolVal(l != 0 || r != 0)
		}
	}
	panic(fmt.Sprintf("treeEval: unknown expression %#v", e))
}

// flatEval evaluates e through the compiled path: a program that sets
// one variable per entry of env, then writes e to register 0, whose
// pending write carries e's value. It fails the test when Build refuses.
func flatEval(t testing.TB, env []model.Value, e program.Expr) model.Value {
	t.Helper()
	v, err := flatEvalErr(env, e)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return v
}

// flatEvalErr is flatEval returning Build's error.
func flatEvalErr(env []model.Value, e program.Expr) (model.Value, error) {
	b := program.NewBuilder("eval")
	for i, v := range env {
		b.Let(b.Var("v"+strconv.Itoa(i)), program.Const(v))
	}
	b.Write(0, e)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		return 0, err
	}
	return program.NewAutomaton(p, 0).PendingStep().Val, nil
}

// instrs returns p's instructions in tree form.
func instrs(p *program.Program) []program.Instr {
	out := make([]program.Instr, p.Len())
	for i := range out {
		out[i] = p.Instr(i)
	}
	return out
}

// treeAutomaton is the pre-compilation Automaton over a program's
// instructions in tree form: pc, locals and halted, normalized onto a
// shared-memory or critical instruction after every Feed.
type treeAutomaton struct {
	name   string
	instrs []program.Instr
	proc   int
	pc     int
	env    []model.Value
	halted bool
}

func newTreeAutomaton(p *program.Program, proc int) *treeAutomaton {
	a := &treeAutomaton{name: p.Name, instrs: instrs(p), proc: proc, env: make([]model.Value, p.NumVars())}
	a.normalize()
	return a
}

func (a *treeAutomaton) regOf(in *program.Instr) model.RegID {
	if in.RegX != nil {
		return model.RegID(treeEval(in.RegX, a.env))
	}
	return in.Reg
}

func (a *treeAutomaton) normalize() {
	for ops := 0; ; ops++ {
		if ops > 1_000_000 {
			panic(fmt.Sprintf("program %q: local instructions diverge at pc=%d", a.name, a.pc))
		}
		if a.pc >= len(a.instrs) {
			a.halted = true
			return
		}
		in := &a.instrs[a.pc]
		switch in.Op {
		case program.OpCLet:
			a.env[in.Dst] = treeEval(in.Val, a.env)
			a.pc++
		case program.OpCGoto:
			a.pc = in.Target
		case program.OpCIf:
			if treeEval(in.Cond, a.env) != 0 {
				a.pc = in.Target
			} else {
				a.pc++
			}
		case program.OpCHalt:
			a.halted = true
			return
		default:
			return
		}
	}
}

func (a *treeAutomaton) PendingStep() model.Step {
	in := &a.instrs[a.pc]
	switch in.Op {
	case program.OpCRead:
		return model.Step{Proc: a.proc, Kind: model.KindRead, Reg: a.regOf(in)}
	case program.OpCWrite:
		return model.Step{Proc: a.proc, Kind: model.KindWrite, Reg: a.regOf(in), Val: treeEval(in.Val, a.env)}
	case program.OpCRMW:
		return model.Step{
			Proc: a.proc, Kind: model.KindRMW, Reg: a.regOf(in), RMW: in.RMW,
			Arg1: treeEval(in.Val, a.env), Arg2: treeEval(in.Val2, a.env),
		}
	case program.OpCCrit:
		return model.Step{Proc: a.proc, Kind: model.KindCrit, Crit: in.Crit}
	}
	panic(fmt.Sprintf("program %q: PendingStep at non-normalized pc=%d", a.name, a.pc))
}

func (a *treeAutomaton) Feed(v model.Value) {
	in := &a.instrs[a.pc]
	switch in.Op {
	case program.OpCRead, program.OpCRMW:
		a.env[in.Dst] = v
	}
	a.pc++
	a.normalize()
}

func (a *treeAutomaton) StateKey() string {
	var b strings.Builder
	if a.halted {
		b.WriteByte('H')
	}
	b.WriteString(strconv.Itoa(a.pc))
	for _, v := range a.env {
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(v, 10))
	}
	return b.String()
}

// TestCompiledMatchesTreeInterpreter steps every registered algorithm at
// n = 2…8 (Dekker's at 2 only) under round-robin and under greedy-cost,
// on a System of compiled automata, and feeds each executed step to the
// tree interpreter beside it. Before every step each live process's
// pending step and StateKey must agree between the two, and the System's
// changed flag must be the oracle's StateKey change (Definition 3.1).
func TestCompiledMatchesTreeInterpreter(t *testing.T) {
	steps := 0
	for _, name := range mutex.Names() {
		for n := 2; n <= 8; n++ {
			if name == mutex.NameDekker && n > 2 {
				continue
			}
			f, err := mutex.New(name, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			for _, sched := range []machine.Scheduler{machine.NewRoundRobin(), machine.NewGreedyCost()} {
				steps += runSideBySide(t, f, sched)
			}
		}
	}
	t.Logf("%d steps checked", steps)
}

// runSideBySide runs f under sched to the default horizon, checking the
// compiled automata against the tree oracle at every step, and returns
// the number of steps taken.
func runSideBySide(t *testing.T, f program.Factory, sched machine.Scheduler) int {
	t.Helper()
	sys := machine.NewSystem(f)
	oracle := make([]*treeAutomaton, f.N())
	for i := range oracle {
		oracle[i] = newTreeAutomaton(f.Program(i), i)
	}
	horizon := machine.DefaultHorizon(f.N())
	for step := 0; ; step++ {
		for i, o := range oracle {
			a := sys.Automaton(i)
			if a.Halted() != o.halted || a.StateKey() != o.StateKey() {
				t.Fatalf("%s under %s, step %d: process %d is %q (halted %v), the tree oracle %q (halted %v)", f.Name(), sched.Name(), step, i, a.StateKey(), a.Halted(), o.StateKey(), o.halted)
			}
			if !o.halted {
				if got, want := a.PendingStep(), o.PendingStep(); got != want {
					t.Fatalf("%s under %s, step %d: process %d pends %v, the tree oracle %v", f.Name(), sched.Name(), step, i, got, want)
				}
			}
		}
		if sys.AllHalted() || step == horizon {
			return step
		}
		i := sched.Next(sys)
		if i < 0 {
			return step
		}
		done, err := sys.Step(i)
		if err != nil {
			t.Fatalf("%s under %s, step %d: %v", f.Name(), sched.Name(), step, err)
		}
		before := oracle[i].StateKey()
		oracle[i].Feed(done.Val)
		if changed := sys.Changed()[step]; changed != (oracle[i].StateKey() != before) {
			t.Fatalf("%s under %s, step %d: process %d's step %v changed=%v, the tree oracle's StateKey %q -> %q", f.Name(), sched.Name(), step, i, done, changed, before, oracle[i].StateKey())
		}
	}
}
