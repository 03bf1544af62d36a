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

// Measure replays the execution and computes its cost under all models.
// The execution must be a valid execution of the factory's algorithm.
func Measure(f program.Factory, exec model.Execution) (Report, error) {
	rep := Report{N: f.N()}
	layout, hasLayout := f.(DSMLayout)

	// Per-process CC cache: validBits[proc][reg] true when proc holds a
	// valid cached copy of reg.
	valid := make([][]bool, f.N())
	for i := range valid {
		valid[i] = make([]bool, f.NumRegisters())
	}

	r := machine.NewSystem(f)
	for t, s := range exec {
		done, charged, err := r.Replay(s)
		if err != nil {
			return rep, fmt.Errorf("cost: step %d: %w", t, err)
		}
		if charged {
			rep.SC++
		}
		rep.Steps++
		if !done.IsShared() {
			rep.CritSteps++
			continue
		}
		rep.SharedAccesses++

		// CC model: a read hits if cached; otherwise it is remote and
		// caches the register. A write (or RMW) is remote and invalidates
		// every other copy.
		switch done.Kind {
		case model.KindRead:
			if !valid[done.Proc][done.Reg] {
				rep.CCRMR++
				valid[done.Proc][done.Reg] = true
			}
		case model.KindWrite, model.KindRMW:
			rep.CCRMR++
			for p := range valid {
				if p != done.Proc {
					valid[p][done.Reg] = false
				}
			}
			valid[done.Proc][done.Reg] = true
		}

		// DSM model: remote iff the register's home is not the actor.
		home := -1
		if hasLayout {
			home = layout.Home(done.Reg)
		}
		if home != done.Proc {
			rep.DSMRMR++
		}
	}
	return rep, nil
}

// SCCost computes only the state change cost of an execution.
func SCCost(f program.Factory, exec model.Execution) (int, error) {
	_, sc, err := machine.ReplayExecution(f, exec)
	return sc, err
}
