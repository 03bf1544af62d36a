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
// The SC charge of a step is decided once, when a machine.System executes
// it, and recorded in System.Changed. Of reads those flags beside the steps
// (System.Trace), so a run is costed without being stepped again; Measure
// is for an execution that arrives from outside its System, which it
// replays once through machine.ReplayExecution before applying Of.
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
// System.Changed, or machine.ReplayExecution's result). SC counts the
// shared steps whose flag is set; the CC and DSM counts depend on the
// steps alone.
func Of(f program.Factory, exec model.Execution, changed []bool) Report {
	n, regs := f.N(), f.NumRegisters()
	rep := Report{N: n, Steps: len(exec)}
	layout, hasLayout := f.(DSMLayout)

	// CC cache: valid[p*regs+r] is true when process p holds a valid
	// cached copy of register r.
	valid := make([]bool, n*regs)
	for t, s := range exec {
		if !s.IsShared() {
			rep.CritSteps++
			continue
		}
		rep.SharedAccesses++
		if changed[t] {
			rep.SC++
		}

		// CC model: a read hits if cached; otherwise it is remote and
		// caches the register. A write (or RMW) is remote and invalidates
		// every other copy.
		own := s.Proc*regs + int(s.Reg)
		switch s.Kind {
		case model.KindRead:
			if !valid[own] {
				rep.CCRMR++
				valid[own] = true
			}
		case model.KindWrite, model.KindRMW:
			rep.CCRMR++
			for r := int(s.Reg); r < len(valid); r += regs {
				valid[r] = false
			}
			valid[own] = true
		}

		// DSM model: remote iff the register's home is not the actor.
		home := -1
		if hasLayout {
			home = layout.Home(s.Reg)
		}
		if home != s.Proc {
			rep.DSMRMR++
		}
	}
	return rep
}
