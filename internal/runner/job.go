package runner

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
	_ "repro/internal/rmw" // registers the RMW locks with internal/mutex
)

// Job is a pure, seed-addressed unit of simulator work: one canonical
// execution of a named algorithm under a scheduler spec. Everything a Job
// needs is carried by value — factory name, n, scheduler spec, seed,
// horizon — so ExecuteTraced can build all mutable state (factory, system,
// scheduler) fresh inside the worker and two workers never share anything
// writable.
type Job struct {
	// Algo is a registered algorithm name ("yang-anderson", "bakery",
	// "mcs", …).
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

// NewFactory resolves a registered algorithm name to a fresh factory
// instance: the register-only algorithms of internal/mutex and the RMW
// locks internal/rmw registers beside them. Factories are immutable once
// built (programs and layouts are shared read-only), so the instance may
// be used from any worker; it is still constructed per job so no lifecycle
// question arises.
func NewFactory(name string, n int) (program.Factory, error) {
	f, err := mutex.New(name, n)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// run resolves a unit's factory and scheduler and drives them on a fresh
// System for at most horizon steps (0 means machine.DefaultHorizon(n)).
// The System is nil when the unit did not resolve; otherwise the error is
// machine.Run's.
func run(algo string, n int, spec machine.Spec, horizon int) (program.Factory, *machine.System, error) {
	f, err := NewFactory(algo, n)
	if err != nil {
		return nil, nil, err
	}
	sched, err := spec.New()
	if err != nil {
		return nil, nil, err
	}
	if horizon <= 0 {
		horizon = machine.DefaultHorizon(n)
	}
	s := machine.NewSystem(f)
	_, err = machine.Run(s, sched, horizon)
	return f, s, err
}

// ExecuteTraced runs one job to completion: resolve the factory, build the
// scheduler from its spec, drive a canonical execution, and read its cost
// from the charges the System recorded. It never shares state with other
// invocations. Errors are returned unwrapped — the Result already carries
// the job's coordinates, and folds add their own context. Beside the
// Result it returns the raw material trace capture persists: the
// execution's step log and the machine's per-step changed flags. On error
// the trace and flags are nil: a failed job has no execution worth
// replaying.
func ExecuteTraced(j Job) (Result, model.Execution, []bool) {
	res := Result{Job: j}
	f, s, err := run(j.Algo, j.N, j.Sched, j.Horizon)
	if err == nil {
		err = s.CheckCanonical()
	}
	if err != nil {
		res.Err = err
		return res, nil, nil
	}
	res.Report = cost.Of(f, s.Trace(), s.Changed())
	return res, s.Trace(), s.Changed()
}
