package program

import "repro/internal/model"

// Factory describes an n-process shared-memory algorithm: how many
// registers it uses, their initial values, and the program each process
// runs. Mutex algorithms (internal/mutex, internal/rmw) implement Factory;
// the simulator (internal/machine), the lower-bound construction
// (internal/construct) and the decoder (internal/decode) consume it.
type Factory interface {
	// Name identifies the algorithm, e.g. "yang-anderson".
	Name() string
	// N returns the number of processes.
	N() int
	// NumRegisters returns the size of the shared register file.
	NumRegisters() int
	// InitialValues returns initial register values, or nil for all-zero.
	// When non-nil, its length must equal NumRegisters().
	InitialValues() []model.Value
	// Program returns the program process i runs (0 <= i < N()).
	// Programs may be shared across calls; they are immutable.
	Program(i int) *Program
	// UsesRMW reports whether any program uses read-modify-write
	// primitives. The paper's register-only lower bound pipeline rejects
	// such algorithms; the simulator accepts them.
	UsesRMW() bool
}

// NewAutomata instantiates a fresh automaton per process for the factory.
func NewAutomata(f Factory) []*Automaton {
	out := make([]*Automaton, f.N())
	for i := range out {
		out[i] = NewAutomaton(f.Program(i), i)
	}
	return out
}

// NewRegisters creates the factory's initial register file.
func NewRegisters(f Factory) *model.Registers {
	return model.NewRegisters(f.NumRegisters(), f.InitialValues())
}

// ProgramUsesRMW reports whether a program contains any RMW instruction;
// factories can implement UsesRMW with it.
func ProgramUsesRMW(p *Program) bool {
	for i := range p.ops {
		if p.ops[i].code == OpCRMW {
			return true
		}
	}
	return false
}
