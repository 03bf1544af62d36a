package runner

import (
	"errors"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
)

// ScheduleJob is the schedule-search unit of work: one run of a named
// algorithm under a candidate schedule, scored even when the candidate
// fails to complete a canonical execution. Unlike Job — whose
// ExecuteTraced demands a canonical run and treats anything else as an
// error — ExecuteScheduleTraced reports what actually happened, so a
// search driver can discard truncated or stalled candidates instead of
// aborting the batch, and never mistakes a truncated execution for a
// cheap one.
type ScheduleJob struct {
	// Algo is a registered algorithm name (see NewFactory).
	Algo string
	// N is the number of processes.
	N int
	// Sched describes the candidate schedule; a fresh scheduler is built
	// per job, so a ScheduleJob stays a pure value across workers.
	Sched machine.Spec
	// Horizon is the step budget; 0 means machine.DefaultHorizon(N).
	Horizon int
	// KeepDecisions bounds the recorded decision sequence: the first
	// KeepDecisions steps' acting processes are returned in the result,
	// giving mutation-based search its editable genome. 0 records none.
	KeepDecisions int
}

// ScheduleResult carries one candidate evaluation back for ordered folding.
type ScheduleResult struct {
	// Index is the job's position in the submitted slice.
	Index int
	// Job echoes the executed job.
	Job ScheduleJob
	// Report is the cost of whatever execution the schedule produced —
	// complete or truncated. Only meaningful when Err is nil; zero when a
	// non-canonical trace was rejected by the cost model (such candidates
	// are discards, not errors).
	Report cost.Report
	// Canonical is true when the run completed a canonical execution:
	// every process halted after exactly one critical-section cycle.
	// Horizon exhaustion and scheduler stalls leave it false.
	Canonical bool
	// Decisions is the acting process of each of the first KeepDecisions
	// steps.
	Decisions []int
	// Err is set for hard failures only (unknown algorithm, bad scheduler
	// spec, ill-formed step) — defects, not expensive schedules.
	Err error
}

// ExecuteScheduleTraced runs one candidate schedule to completion or
// truncation. ErrHorizon and ErrStalled are not errors here: they mark the
// result non-canonical and the truncated execution is still measured, so a
// fold can report on it without ever ranking it against complete
// executions. Beside the result it returns the step log and per-step
// changed flags, for trace capture. A hard failure (Err set) returns nil
// trace and flags; a discarded candidate (non-canonical, zero report)
// still returns whatever execution it produced — a truncated run replays
// like any other.
func ExecuteScheduleTraced(j ScheduleJob) (ScheduleResult, model.Execution, []bool) {
	res := ScheduleResult{Job: j}
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
	horizon := j.Horizon
	if horizon <= 0 {
		horizon = machine.DefaultHorizon(j.N)
	}
	s := machine.NewSystem(f)
	exec, runErr := machine.Run(s, sched, horizon)
	if runErr != nil {
		var h machine.ErrHorizon
		var st machine.ErrStalled
		if !errors.As(runErr, &h) && !errors.As(runErr, &st) {
			res.Err = runErr
			return res, nil, nil
		}
	} else {
		canonical := s.AllHalted()
		for i := 0; canonical && i < j.N; i++ {
			if s.CSCompleted(i) != 1 {
				canonical = false
			}
		}
		res.Canonical = canonical
	}
	if k := j.KeepDecisions; k > 0 {
		if k > len(exec) {
			k = len(exec)
		}
		res.Decisions = make([]int, k)
		for i := 0; i < k; i++ {
			res.Decisions[i] = exec[i].Proc
		}
	}
	rep, err := cost.Measure(f, exec)
	if err != nil {
		if res.Canonical {
			// A canonical execution the cost model rejects is a defect.
			res.Err = err
			return res, nil, nil
		}
		// A truncated or otherwise non-canonical trace the cost model
		// rejects is a discard, not a defect: the candidate was already
		// unscorable, and one bad candidate must never abort a whole search
		// batch. Report stays zero and Canonical stays false, so folds
		// discard it exactly like any other incomplete run.
		return res, exec, s.Changed()
	}
	res.Report = rep
	return res, exec, s.Changed()
}
