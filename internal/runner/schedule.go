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
	// complete or truncated. Only meaningful when Err is nil.
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
// result non-canonical and the truncated execution is still costed, so a
// fold can report on it without ever ranking it against complete
// executions. Beside the result it returns the step log and per-step
// changed flags, for trace capture. A hard failure (Err set) returns nil
// trace and flags; a discarded candidate (non-canonical) still returns
// whatever execution it produced — a truncated run replays like any other.
func ExecuteScheduleTraced(j ScheduleJob) (ScheduleResult, model.Execution, []bool) {
	res := ScheduleResult{Job: j}
	f, s, err := run(j.Algo, j.N, j.Sched, j.Horizon)
	var h machine.ErrHorizon
	var st machine.ErrStalled
	if err != nil && !errors.As(err, &h) && !errors.As(err, &st) {
		res.Err = err
		return res, nil, nil
	}
	res.Canonical = err == nil && s.CheckCanonical() == nil
	exec := s.Trace()
	if k := min(j.KeepDecisions, len(exec)); k > 0 {
		res.Decisions = make([]int, k)
		for i := range res.Decisions {
			res.Decisions[i] = exec[i].Proc
		}
	}
	res.Report = cost.Of(f, exec, s.Changed())
	return res, exec, s.Changed()
}
