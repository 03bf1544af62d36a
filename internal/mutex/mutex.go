// Package mutex implements mutual exclusion algorithms as register programs
// for the paper's shared-memory model:
//
//   - Yang–Anderson's local-spin tournament algorithm [13], the witness
//     that the paper's Ω(n log n) bound is tight: it has O(n log n) state
//     change cost in every canonical execution;
//   - Peterson's algorithm (two-process and an n-process tournament), a
//     classic register algorithm that busywaits on two variables and is
//     therefore not local-spin;
//   - Lamport's bakery algorithm, with Θ(n) reads per passage and hence
//     Θ(n²) total cost — the contrast in experiment E7;
//   - a deliberately unsafe naive lock used to validate the safety checkers.
//
// All algorithms are expressed in the internal/program DSL, so every proof
// artifact of the paper (the construction, the SC oracle, the decoder) can
// run against them unchanged.
package mutex

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/program"
)

// Layout assigns named shared registers, their initial values, and their
// DSM homes. Algorithm constructors build one layout per factory and then
// refer to registers by the returned IDs.
type Layout struct {
	names []string
	init  []model.Value
	homes []int
	index map[string]model.RegID
}

// NewLayout returns an empty register layout.
func NewLayout() *Layout {
	return &Layout{index: make(map[string]model.RegID)}
}

// Reg allocates a register with a unique name, an initial value, and a DSM
// home process (-1 for global memory). It panics on duplicate names: layout
// construction is static algorithm definition, so a duplicate is a bug.
func (l *Layout) Reg(name string, init model.Value, home int) model.RegID {
	if _, dup := l.index[name]; dup {
		panic(fmt.Sprintf("mutex: duplicate register %q", name))
	}
	id := model.RegID(len(l.names))
	l.names = append(l.names, name)
	l.init = append(l.init, init)
	l.homes = append(l.homes, home)
	l.index[name] = id
	return id
}

// Lookup returns the ID of a named register.
func (l *Layout) Lookup(name string) (model.RegID, bool) {
	id, ok := l.index[name]
	return id, ok
}

// Name returns the name of a register.
func (l *Layout) Name(id model.RegID) string { return l.names[id] }

// Len returns the number of registers allocated.
func (l *Layout) Len() int { return len(l.names) }

// Factory is the concrete program.Factory used by all algorithms here.
// It also implements cost.DSMLayout via the layout's homes.
type Factory struct {
	name    string
	n       int
	layout  *Layout
	progs   []*program.Program
	usesRMW bool
}

// NewFactory builds a factory from per-process programs and a layout.
func NewFactory(name string, layout *Layout, progs []*program.Program) *Factory {
	f := &Factory{name: name, n: len(progs), layout: layout, progs: progs}
	for _, p := range progs {
		if program.ProgramUsesRMW(p) {
			f.usesRMW = true
		}
	}
	return f
}

// Name implements program.Factory.
func (f *Factory) Name() string { return f.name }

// N implements program.Factory.
func (f *Factory) N() int { return f.n }

// NumRegisters implements program.Factory.
func (f *Factory) NumRegisters() int { return f.layout.Len() }

// InitialValues implements program.Factory.
func (f *Factory) InitialValues() []model.Value {
	out := make([]model.Value, len(f.layout.init))
	copy(out, f.layout.init)
	return out
}

// Program implements program.Factory.
func (f *Factory) Program(i int) *program.Program { return f.progs[i] }

// UsesRMW implements program.Factory.
func (f *Factory) UsesRMW() bool { return f.usesRMW }

// Home implements cost.DSMLayout.
func (f *Factory) Home(reg model.RegID) int { return f.layout.homes[reg] }

// Layout exposes the register layout for inspection and debugging.
func (f *Factory) Layout() *Layout { return f.layout }

// Builder is the constructor signature registered in the Registry: it
// builds an n-process instance of an algorithm.
type Builder func(n int) (*Factory, error)

// registry of algorithm constructors by name, populated in registry.go.
var registry = map[string]Builder{}

// Register adds an algorithm constructor under a unique name.
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("mutex: duplicate algorithm %q", name))
	}
	registry[name] = b
}

// New builds an n-process instance of the named algorithm.
func New(name string, n int) (*Factory, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("mutex: unknown algorithm %q (known: %v)", name, Names())
	}
	return b(n)
}

// Names returns the registered algorithm names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}
