package program_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/program"
)

// validateRecursive is Validate as it was first written, with the cycle
// check a recursive depth-first search that allocates each instruction's
// successor list. It is the oracle for the iterative search Validate runs.
func validateRecursive(p *program.Program) error {
	n := len(p.Instrs)
	if n == 0 {
		return fmt.Errorf("program %q: empty", p.Name)
	}
	for i, in := range p.Instrs {
		switch in.Op {
		case program.OpCIf, program.OpCGoto:
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("program %q: instr %d: jump target %d out of range [0,%d)", p.Name, i, in.Target, n)
			}
		}
		switch in.Op {
		case program.OpCRead, program.OpCRMW, program.OpCLet:
			if in.Dst < 0 || in.Dst >= len(p.VarNames) {
				return fmt.Errorf("program %q: instr %d: variable index %d out of range", p.Name, i, in.Dst)
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
		if !p.Instrs[i].IsLocal() {
			return nil
		}
		switch color[i] {
		case gray:
			return fmt.Errorf("program %q: local-instruction cycle through instr %d (transition function would diverge)", p.Name, i)
		case black:
			return nil
		}
		color[i] = gray
		in := p.Instrs[i]
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
	for i := range p.Instrs {
		if color[i] == white {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// injectLocal returns a copy of p with k random instructions replaced by
// local ones (Let, Goto, or If with a random in-range target), which
// often closes a local-instruction cycle.
func injectLocal(rng *rand.Rand, p *program.Program, k int) *program.Program {
	instrs := append([]program.Instr(nil), p.Instrs...)
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
	return &program.Program{Name: p.Name, Instrs: instrs, VarNames: p.VarNames}
}

// TestValidateMatchesRecursiveDFS checks that Validate and the recursive
// oracle agree, down to the error text, on random programs as built and
// with local instructions injected.
func TestValidateMatchesRecursiveDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cycles := 0
	for trial := 0; trial < 2000; trial++ {
		p := randomProgram(rng, 3)
		if trial%4 != 0 {
			p = injectLocal(rng, p, 1+rng.Intn(4))
		}
		got, want := p.Validate(), validateRecursive(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate = %v, recursive DFS = %v\n%s", trial, got, want, p.Disassemble())
		}
		if want != nil {
			cycles++
		}
	}
	if cycles < 100 {
		t.Errorf("only %d of 2000 programs had a local cycle; the injection exercises too little", cycles)
	}
}
