// Package verify checks executions against the requirements of the
// livelock-free mutual exclusion problem (Section 3.2): well-formedness,
// mutual exclusion, and livelock freedom, plus auxiliary checks (canonical
// executions, replay validity) used throughout the test suite and the
// experiment harness.
package verify

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/program"
)

// WellFormed checks that for every process, the subsequence of its critical
// steps is a prefix of (try enter exit rem)*.
func WellFormed(exec model.Execution, n int) error {
	expect := []model.CritKind{model.CritTry, model.CritEnter, model.CritExit, model.CritRem}
	pos := make([]int, n)
	for t, s := range exec {
		if s.Kind != model.KindCrit {
			continue
		}
		if s.Proc < 0 || s.Proc >= n {
			return fmt.Errorf("verify: step %d: process %d out of range", t, s.Proc)
		}
		want := expect[pos[s.Proc]%4]
		if s.Crit != want {
			return fmt.Errorf("verify: step %d: process %d performs %s, well-formedness requires %s", t, s.Proc, s.Crit, want)
		}
		pos[s.Proc]++
	}
	return nil
}

// MutualExclusion checks that no two processes are simultaneously between
// their enter and exit steps.
func MutualExclusion(exec model.Execution) error {
	occupant := -1
	for t, s := range exec {
		if s.Kind != model.KindCrit {
			continue
		}
		switch s.Crit {
		case model.CritEnter:
			if occupant >= 0 && occupant != s.Proc {
				return fmt.Errorf("verify: step %d: process %d enters while process %d is in its critical section", t, s.Proc, occupant)
			}
			occupant = s.Proc
		case model.CritExit:
			if occupant != s.Proc {
				return fmt.Errorf("verify: step %d: process %d exits but occupant is %d", t, s.Proc, occupant)
			}
			occupant = -1
		}
	}
	return nil
}

// Canonical checks the execution is canonical: every one of the n processes
// completes exactly one try-enter-exit-rem cycle.
func Canonical(exec model.Execution, n int) error {
	cycles := make([]int, n)
	for _, s := range exec {
		if s.Kind == model.KindCrit && s.Crit == model.CritRem {
			cycles[s.Proc]++
		}
	}
	for i, c := range cycles {
		if c != 1 {
			return fmt.Errorf("verify: process %d completed %d critical-section cycles, canonical executions require 1", i, c)
		}
	}
	return nil
}

// EntryOrder checks that processes enter their critical sections in exactly
// the given order (a permutation of 0..n-1). This is the conclusion of
// Theorem 5.5 for the construction's linearizations.
func EntryOrder(exec model.Execution, want []int) error {
	got := exec.EntryOrder()
	if len(got) != len(want) {
		return fmt.Errorf("verify: %d critical-section entries, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			return fmt.Errorf("verify: entry %d is by process %d, want process %d (got order %v, want %v)", k, got[k], want[k], got, want)
		}
	}
	return nil
}

// Replayable checks that the execution is a genuine execution of the
// algorithm: every step matches the acting automaton's pending step and
// every recorded read value matches the register contents at that point.
func Replayable(f program.Factory, exec model.Execution) error {
	r := machine.NewSystem(f)
	for t, s := range exec {
		done, _, err := r.Replay(s)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if s.Kind == model.KindRead && s.Val != done.Val && s.Val != 0 {
			// Recorded read results are optional (zero when unrecorded);
			// when present they must match.
			return fmt.Errorf("verify: step %d: recorded read value %d, replay reads %d", t, s.Val, done.Val)
		}
	}
	return nil
}

// Progress describes the outcome of a livelock-freedom check.
type Progress struct {
	// Completed is true when every process finished its cycle within the
	// horizon.
	Completed bool
	// Steps is the number of steps taken.
	Steps int
}

// LivelockFree runs the algorithm under the scheduler for at most maxSteps
// and checks the livelock freedom property on the resulting (fair, because
// the supplied scheduler must be fair) execution: every try is followed by
// some enter, and every exit by some rem. It also requires that all
// processes complete, since our algorithms' programs terminate after one
// cycle. This is a bounded-horizon check: liveness proper is not decidable
// by testing, but a violation found here is a definite bug.
func LivelockFree(f program.Factory, sched machine.Scheduler, maxSteps int) (Progress, error) {
	if maxSteps <= 0 {
		maxSteps = machine.DefaultHorizon(f.N())
	}
	s := machine.NewSystem(f)
	trace, err := machine.Run(s, sched, maxSteps)
	p := Progress{Steps: len(trace)}
	var horizon machine.ErrHorizon
	if err != nil && !errors.As(err, &horizon) {
		return p, err
	}
	if err := checkFollowedBy(trace, model.CritTry, model.CritEnter); err != nil {
		return p, err
	}
	if err := checkFollowedBy(trace, model.CritExit, model.CritRem); err != nil {
		return p, err
	}
	if err != nil { // horizon exhausted: processes still live
		return p, fmt.Errorf("verify: livelock suspected: %w", err)
	}
	p.Completed = true
	return p, nil
}

// checkFollowedBy verifies that every `a` critical step is followed, later
// in the execution, by some `b` critical step (by any process) — the shape
// of the livelock freedom property.
func checkFollowedBy(exec model.Execution, a, b model.CritKind) error {
	lastA := -1
	for t, s := range exec {
		if s.Kind != model.KindCrit {
			continue
		}
		switch s.Crit {
		case a:
			lastA = t
		case b:
			lastA = -1
		}
	}
	if lastA >= 0 {
		return fmt.Errorf("verify: %s at step %d is never followed by %s", a, lastA, b)
	}
	return nil
}

// MutexExecution runs the full battery on a canonical execution: replayable,
// well-formed, mutually exclusive, and canonical.
func MutexExecution(f program.Factory, exec model.Execution) error {
	if err := Replayable(f, exec); err != nil {
		return err
	}
	if err := WellFormed(exec, f.N()); err != nil {
		return err
	}
	if err := MutualExclusion(exec); err != nil {
		return err
	}
	return Canonical(exec, f.N())
}
