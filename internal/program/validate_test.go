package program_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/program"
)

// validateRecursive is Validate as it was first written, over a
// program's instructions in tree form, with the cycle check a recursive
// depth-first search that allocates each instruction's successor list. It
// is the oracle for the iterative search Validate runs on compiled ops.
func validateRecursive(name string, instrs []program.Instr, numVars int) error {
	n := len(instrs)
	if n == 0 {
		return fmt.Errorf("program %q: empty", name)
	}
	for i, in := range instrs {
		switch in.Op {
		case program.OpCIf, program.OpCGoto:
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("program %q: instr %d: jump target %d out of range [0,%d)", name, i, in.Target, n)
			}
		}
		switch in.Op {
		case program.OpCRead, program.OpCRMW, program.OpCLet:
			if in.Dst < 0 || in.Dst >= numVars {
				return fmt.Errorf("program %q: instr %d: variable index %d out of range", name, i, in.Dst)
			}
		}
	}
	const (
		white, gray, black = 0, 1, 2
	)
	color := make([]byte, n)
	var visit func(i int) error
	visit = func(i int) error {
		if i >= n {
			return nil
		}
		if op := instrs[i].Op; op != program.OpCLet && op != program.OpCIf && op != program.OpCGoto {
			return nil
		}
		switch color[i] {
		case gray:
			return fmt.Errorf("program %q: local-instruction cycle through instr %d (transition function would diverge)", name, i)
		case black:
			return nil
		}
		color[i] = gray
		in := instrs[i]
		succs := []int{}
		switch in.Op {
		case program.OpCLet:
			succs = append(succs, i+1)
		case program.OpCGoto:
			succs = append(succs, in.Target)
		case program.OpCIf:
			succs = append(succs, i+1, in.Target)
		}
		for _, s := range succs {
			if s < n {
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		color[i] = black
		return nil
	}
	for i := range instrs {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// injectLocal returns a copy of instrs with k random instructions
// replaced by local ones (Let, Goto, or If with a random in-range target),
// which often closes a local-instruction cycle.
func injectLocal(rng *rand.Rand, instrs []program.Instr, k int) []program.Instr {
	instrs = append([]program.Instr(nil), instrs...)
	for ; k > 0; k-- {
		i := rng.Intn(len(instrs))
		target := rng.Intn(len(instrs))
		switch rng.Intn(3) {
		case 0:
			instrs[i] = program.Instr{Op: program.OpCLet, Dst: 0, Val: program.Const(model.Value(rng.Intn(3)))}
		case 1:
			instrs[i] = program.Instr{Op: program.OpCGoto, Target: target}
		default:
			instrs[i] = program.Instr{Op: program.OpCIf, Cond: program.Const(model.Value(rng.Intn(2))), Target: target}
		}
	}
	return instrs
}

// rebuild compiles instrs with a Builder, labelling every instruction so
// that jump targets carry over, and returns what Build returns: the
// program, or Validate's verdict on it.
func rebuild(name string, varNames []string, instrs []program.Instr) (*program.Program, error) {
	b := program.NewBuilder(name)
	vars := make([]program.VarRef, len(varNames))
	for i, v := range varNames {
		vars[i] = b.Var(v)
	}
	at := func(i int) string { return "L" + strconv.Itoa(i) }
	for i, in := range instrs {
		b.Label(at(i))
		switch in.Op {
		case program.OpCRead:
			if in.RegX != nil {
				b.ReadX(in.RegX, vars[in.Dst])
			} else {
				b.Read(in.Reg, vars[in.Dst])
			}
		case program.OpCWrite:
			if in.RegX != nil {
				b.WriteX(in.RegX, in.Val)
			} else {
				b.Write(in.Reg, in.Val)
			}
		case program.OpCRMW:
			b.RMW(in.RMW, in.Reg, in.Val, in.Val2, vars[in.Dst])
		case program.OpCCrit:
			b.Crit(in.Crit)
		case program.OpCLet:
			b.Let(vars[in.Dst], in.Val)
		case program.OpCIf:
			b.If(in.Cond, at(in.Target))
		case program.OpCGoto:
			b.Goto(at(in.Target))
		case program.OpCHalt:
			b.Halt()
		}
	}
	return b.Build()
}

// TestValidateMatchesRecursiveDFS checks that Validate and the recursive
// oracle agree, down to the error text, on random programs as built and
// with local instructions injected. The oracle reads the instructions in
// tree form; Validate runs on the program Build compiles from them.
func TestValidateMatchesRecursiveDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cycles := 0
	for trial := 0; trial < 2000; trial++ {
		p := randomProgram(rng, 3)
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: a built program fails Validate: %v", trial, err)
		}
		ins := instrs(p)
		if trial%4 != 0 {
			ins = injectLocal(rng, ins, 1+rng.Intn(4))
		}
		_, got := rebuild(p.Name, p.VarNames, ins)
		want := validateRecursive(p.Name, ins, p.NumVars())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate = %v, recursive DFS = %v\nbefore injection:\n%s", trial, got, want, p.Disassemble())
		}
		if want != nil {
			cycles++
		}
	}
	if cycles < 100 {
		t.Errorf("only %d of 2000 programs had a local cycle; the injection exercises too little", cycles)
	}
}
