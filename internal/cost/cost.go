// Package cost computes the cost of executions under the cost models
// discussed in the paper:
//
//   - the state change (SC) cost model of Definition 3.1, the paper's
//     primary model: a shared-memory step is charged iff the acting
//     process's automaton state changes across it;
//   - total shared-memory accesses (the naive count, which Alur & Taubenfeld
//     proved is unbounded for any mutex algorithm — the reason discounted
//     models exist at all);
//   - remote memory references (RMRs) in the cache-coherent (CC) model,
//     the model the paper simplifies, simulated with an invalidation-based
//     cache per process;
//   - RMRs in the distributed shared memory (DSM) model, where each
//     register is local to at most one process.
//
// Every model is a fold over an execution's steps, and Acc is its one
// definition. The SC charge of a step is decided once, when a
// machine.System executes it: a System streams each step and its changed
// flag to an Acc set as its Sink, so a run is costed as it executes, and
// needs no step log unless something else reads it. Of feeds an Acc the
// steps and flags a System recorded (System.Trace and System.Changed);
// Measure is for an execution that arrives from outside its System, which
// it replays once through machine.ReplayExecution before applying Of.
package cost

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/program"
)

// Report aggregates the cost of one execution under every model.
type Report struct {
	N              int
	Steps          int // total steps, including critical steps
	SharedAccesses int // read/write/RMW steps (the unbounded count)
	CritSteps      int
	SC             int // state change cost, Definition 3.1
	CCRMR          int // cache-coherent remote memory references
	DSMRMR         int // distributed-shared-memory remote memory references
}

// String renders the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("steps=%d shared=%d crit=%d SC=%d CC-RMR=%d DSM-RMR=%d",
		r.Steps, r.SharedAccesses, r.CritSteps, r.SC, r.CCRMR, r.DSMRMR)
}

// DSMLayout optionally declares register homes for the DSM model. Factories
// that implement it (the local-spin algorithms) get meaningful DSM-RMR
// counts; for others every access is remote.
type DSMLayout interface {
	// Home returns the process to which the register is local, or -1 if
	// the register lives in global memory (remote to everyone).
	Home(reg model.RegID) int
}

// Measure replays an execution that arrives from outside the System that
// produced it (machine.ReplayExecution) and computes its cost under all
// models. The execution must be a valid execution of the factory's
// algorithm.
func Measure(f program.Factory, exec model.Execution) (Report, error) {
	done, changed, err := machine.ReplayExecution(f, exec)
	if err != nil {
		return Report{}, fmt.Errorf("cost: %w", err)
	}
	return Of(f, done, changed), nil
}

// Of computes an execution's cost under all models from the steps and
// changed flags a System recorded for it (System.Trace and
// System.Changed, or machine.ReplayExecution's result): it feeds them to
// an Acc in order.
func Of(f program.Factory, exec model.Execution, changed []bool) Report {
	var a Acc // nothing outlives the loop, so the Acc stays on the stack
	a.start(f)
	for t, s := range exec {
		a.Add(s, changed[t])
	}
	return a.Report()
}

// Acc is the one definition of the cost models: it charges an execution
// one step at a time, as a System executes it, so a run is costed without
// keeping its steps. SC counts the shared steps whose changed flag is set;
// the CC and DSM counts depend on the steps alone. An Acc is single-run
// state, private to one execution.
type Acc struct {
	rep  Report
	regs int
	// cells[p*regs+r] holds process p's view of register r: cachedCopy
	// while p holds a valid cached copy of it (the CC model), and local
	// when r is local to p (the DSM model).
	cells []uint8
}

// Bits of an Acc cell.
const (
	cachedCopy uint8 = 1 << iota
	local
)

// NewAcc returns an accumulator for an execution of the factory's
// algorithm, with every count at zero. It resolves each register's DSM
// home once, so Add asks the factory nothing: for a factory without a
// DSMLayout every register lives in global memory, remote to everyone.
func NewAcc(f program.Factory) *Acc {
	a := new(Acc)
	a.start(f)
	return a
}

// start sets a to NewAcc(f)'s state.
func (a *Acc) start(f program.Factory) {
	n, regs := f.N(), f.NumRegisters()
	*a = Acc{rep: Report{N: n}, regs: regs, cells: make([]uint8, n*regs)}
	if layout, ok := f.(DSMLayout); ok {
		for r := 0; r < regs; r++ {
			if p := layout.Home(model.RegID(r)); p >= 0 && p < n {
				a.cells[p*regs+r] |= local
			}
		}
	}
}

// Add charges one executed step, with the changed flag its System decided
// for it (System.Step hands both to its Sink).
//
//repro:hotpath
func (a *Acc) Add(s model.Step, changed bool) {
	a.rep.Steps++
	if !s.IsShared() {
		a.rep.CritSteps++
		return
	}
	a.rep.SharedAccesses++
	if changed {
		a.rep.SC++
	}

	// CC model: a read hits if cached; otherwise it is remote and caches
	// the register. A write (or RMW) is remote and invalidates every other
	// copy.
	own := s.Proc*a.regs + int(s.Reg)
	switch s.Kind {
	case model.KindRead:
		if a.cells[own]&cachedCopy == 0 {
			a.rep.CCRMR++
			a.cells[own] |= cachedCopy
		}
	case model.KindWrite, model.KindRMW:
		a.rep.CCRMR++
		for c := int(s.Reg); c < len(a.cells); c += a.regs {
			a.cells[c] &^= cachedCopy
		}
		a.cells[own] |= cachedCopy
	}

	// DSM model: remote iff the register's home is not the actor.
	if a.cells[own]&local == 0 {
		a.rep.DSMRMR++
	}
}

// Report returns the cost of the steps added so far.
func (a *Acc) Report() Report { return a.rep }
