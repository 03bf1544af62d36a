package runner

import (
	"errors"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/program"
)

// ScheduleJob is the schedule-search unit of work: one run of a named
// algorithm under a candidate schedule, scored even when the candidate
// fails to complete a canonical execution. Unlike Job — whose
// ExecuteTracedOn demands a canonical run and treats anything else as an
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

// cell returns the factory the candidate runs on.
func (j ScheduleJob) cell() cell { return cell{j.Algo, j.N} }

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

// ExecuteScheduleTraced runs one candidate schedule on its resolved
// factory f to completion or truncation. ErrHorizon and ErrStalled are not errors here: they mark the
// result non-canonical and the truncated execution is still costed, so a
// fold can report on it without ever ranking it against complete
// executions. Beside the result it returns the step log and per-step
// changed flags, for trace capture. A hard failure (Err set) returns nil
// trace and flags; a discarded candidate (non-canonical) still returns
// whatever execution it produced — a truncated run replays like any other.
func ExecuteScheduleTraced(f program.Factory, j ScheduleJob) (ScheduleResult, model.Execution, []bool) {
	return executeSchedule(f, j, true)
}

// executeSchedule is ExecuteScheduleTraced that records the step log only
// when record is set; the trace and flags are nil otherwise. The result
// is the same either way: a candidate is costed, and its decisions kept,
// as its steps execute.
func executeSchedule(f program.Factory, j ScheduleJob, record bool) (ScheduleResult, model.Execution, []bool) {
	res := ScheduleResult{Job: j}
	k := &candidateSink{acc: cost.NewAcc(f)}
	if j.KeepDecisions > 0 {
		k.decisions = make([]int, 0, j.KeepDecisions)
	}
	s, err := run(f, j.Sched, j.Horizon, k, record)
	var h machine.ErrHorizon
	var st machine.ErrStalled
	if err != nil && !errors.As(err, &h) && !errors.As(err, &st) {
		res.Err = err
		return res, nil, nil
	}
	res.Canonical = err == nil && s.CheckCanonical() == nil
	if d := len(k.decisions); d > 0 {
		res.Decisions = k.decisions[:d:d]
	}
	res.Report = k.acc.Report()
	return res, s.Trace(), s.Changed()
}

// candidateSink costs a candidate's steps as they execute, and keeps the
// acting process of the first cap(decisions) of them: the genome a
// mutation-based search edits.
type candidateSink struct {
	acc       *cost.Acc
	decisions []int
}

// Add implements machine.Sink.
//
//repro:hotpath
func (k *candidateSink) Add(step model.Step, changed bool) {
	k.acc.Add(step, changed)
	if len(k.decisions) < cap(k.decisions) {
		k.decisions = append(k.decisions, step.Proc)
	}
}
