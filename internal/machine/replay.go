package machine

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/program"
)

// ReplayExecution steps exec from the initial state through System.Replay
// and returns the executed steps (with read values) and each step's
// changed flag, exactly as System.Step records them for a run: critical
// steps included, so a run's Trace() and Changed() replay to themselves.
// It is the one entry point for an execution that arrives from outside the
// System that produced it (a decoded, linearized or stored execution).
func ReplayExecution(f program.Factory, exec model.Execution) (model.Execution, []bool, error) {
	s := NewSystem(f)
	out := make(model.Execution, 0, len(exec))
	changed := make([]bool, 0, len(exec))
	for t, step := range exec {
		done, c, err := s.Replay(step)
		if err != nil {
			return out, changed, fmt.Errorf("replay step %d: %w", t, err)
		}
		out = append(out, done)
		changed = append(changed, c)
	}
	return out, changed, nil
}

// DefaultHorizon returns a generous step budget for canonical executions of
// an n-process algorithm under a fair scheduler: enough for quadratic-cost
// algorithms with spinning, while still terminating promptly on livelock.
func DefaultHorizon(n int) int {
	h := 2000 + 600*n*n
	return h
}

// RunCanonical runs the factory under the scheduler until every process has
// completed one full critical-section cycle and halted. It is the paper's
// canonical execution driver: "n different processes, each of which enters
// the critical section exactly once."
func RunCanonical(f program.Factory, sched Scheduler, maxSteps int) (model.Execution, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultHorizon(f.N())
	}
	s := NewSystem(f)
	trace, err := Run(s, sched, maxSteps)
	if err != nil {
		return trace, err
	}
	return trace, s.CheckCanonical()
}

// CheckCanonical returns nil when every process has completed exactly one
// critical-section cycle, which makes a halted run canonical.
func (s *System) CheckCanonical() error {
	for i := range s.procs {
		if got := s.procs[i].csDone; got != 1 {
			return fmt.Errorf("machine: canonical run: process %d completed %d critical sections, want 1", i, got)
		}
	}
	return nil
}
