package runner

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
	"repro/internal/rmw"
)

// Job is a pure, seed-addressed unit of simulator work: one canonical
// execution of a named algorithm under a scheduler spec. Everything a Job
// needs is carried by value — factory name, n, scheduler spec, seed,
// horizon — so ExecuteTraced can build all mutable state (factory, system,
// scheduler) fresh inside the worker and two workers never share anything
// writable.
type Job struct {
	// Algo is a registered algorithm name ("yang-anderson", "bakery", …)
	// or one of the RMW locks ("tas", "mcs").
	Algo string
	// N is the number of processes.
	N int
	// Sched describes the scheduler; a fresh instance is built per job.
	Sched machine.Spec
	// Horizon is the step budget; 0 means machine.DefaultHorizon(N).
	Horizon int
	// Seed is recorded for provenance. Callers fold it into Sched.Seed (or
	// derive it with MixSeed) when the job's behaviour should depend on it.
	Seed int64
}

// Result carries one job's outputs back for ordered aggregation: the
// execution's cost report under every model, and any error. Err is
// carried in-band (rather than aborting the pool) so a fold can decide
// whether an individual failure sinks the whole batch. The execution
// trace itself is not retained — a batch of Results must stay small
// however long the traces were; folds that need traces should run the
// trace-consuming work inside the job.
type Result struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job echoes the executed job.
	Job Job
	// Report is the execution's cost under the SC, CC and DSM models.
	Report cost.Report
	// Err is the first error encountered running the job, if any.
	Err error
}

// NewFactory resolves an algorithm name to a fresh factory instance,
// accepting both the register-only algorithms of internal/mutex and the
// RMW locks of internal/rmw. Factories are immutable once built (programs
// and layouts are shared read-only), so the instance may be used from any
// worker; it is still constructed per job so no lifecycle question arises.
func NewFactory(name string, n int) (program.Factory, error) {
	switch name {
	case "tas":
		return rmw.TestAndSet(n)
	case "mcs":
		return rmw.MCS(n)
	default:
		return mutex.New(name, n)
	}
}

// ExecuteTraced runs one job to completion: resolve the factory, build the
// scheduler from its spec, drive a canonical execution, and measure its
// cost. It never shares state with other invocations. Errors are returned
// unwrapped — the Result already carries the job's coordinates, and folds
// add their own context. Beside the Result it returns the raw material
// trace capture persists: the execution's step log and the machine's
// per-step changed flags, which the System retains anyway. On error the
// trace and flags are nil: a failed job has no execution worth replaying.
func ExecuteTraced(j Job) (Result, model.Execution, []bool) {
	res := Result{Job: j}
	f, err := NewFactory(j.Algo, j.N)
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	sched, err := j.Sched.New()
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	exec, changed, err := machine.RunCanonicalChanged(f, sched, j.Horizon)
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	if res.Report, res.Err = cost.Measure(f, exec); res.Err != nil {
		return res, nil, nil
	}
	return res, exec, changed
}
