package machine

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/program"
)

// ReplayExecution replays exec from the initial state and returns the
// executed steps (with read values) and the SC cost of the execution.
func ReplayExecution(f program.Factory, exec model.Execution) (model.Execution, int, error) {
	s := NewSystem(f)
	out := make(model.Execution, 0, len(exec))
	sc := 0
	for t, step := range exec {
		done, charged, err := s.Replay(step)
		if err != nil {
			return out, sc, fmt.Errorf("replay step %d: %w", t, err)
		}
		out = append(out, done)
		if charged {
			sc++
		}
	}
	return out, sc, nil
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
	exec, _, err := RunCanonicalChanged(f, sched, maxSteps)
	return exec, err
}

// RunCanonicalChanged is RunCanonical plus the system's per-step changed
// flags (one bool per executed step, true when the step wrote a new value
// into its register). Trace capture persists the flags beside the step log
// so a later replay can verify the run's cost accounting bit for bit.
func RunCanonicalChanged(f program.Factory, sched Scheduler, maxSteps int) (model.Execution, []bool, error) {
	if maxSteps <= 0 {
		maxSteps = DefaultHorizon(f.N())
	}
	s := NewSystem(f)
	trace, err := Run(s, sched, maxSteps)
	if err != nil {
		return trace, s.Changed(), err
	}
	for i := 0; i < f.N(); i++ {
		if got := s.CSCompleted(i); got != 1 {
			return trace, s.Changed(), fmt.Errorf("machine: canonical run: process %d completed %d critical sections, want 1", i, got)
		}
	}
	return trace, s.Changed(), nil
}
