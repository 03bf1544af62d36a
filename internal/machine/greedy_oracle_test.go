package machine

import (
	"fmt"
	"testing"

	"repro/internal/mutex"
	"repro/internal/program"
	"repro/internal/rmw"
)

// fullScore is GreedyCost.score without the changed-register restriction:
// it asks every other live process, before and after the candidate step,
// whether its pending step would change its state. It is the oracle the
// restricted scan must agree with.
func fullScore(g *GreedyCost, s *System, i int) int {
	g.scratch.copyFrom(s)
	step, changed, err := g.scratch.stepNoRecord(i)
	if err != nil {
		return minScore + 1
	}
	score := 0
	if step.IsShared() && changed {
		score += 2
	}
	for j := 0; j < s.N(); j++ {
		if j == i || s.Halted(j) || g.scratch.Halted(j) {
			continue
		}
		before, after := s.WouldChangeState(j), g.scratch.WouldChangeState(j)
		switch {
		case after && !before:
			score++
		case before && !after:
			score--
		}
	}
	return score
}

// scoreOracle is a scheduler that, before every decision, scores each live
// candidate both ways and records the first disagreement. It then defers
// to drive for the actual choice.
type scoreOracle struct {
	drive     Scheduler
	restrict  *GreedyCost // scored with GreedyCost.score
	full      *GreedyCost // scored with fullScore
	compared  int
	disagreed error
}

func (o *scoreOracle) Name() string { return "score-oracle(" + o.drive.Name() + ")" }

func (o *scoreOracle) Next(s *System) int {
	if o.restrict == nil {
		o.restrict = &GreedyCost{scratch: s.Clone()}
		o.full = &GreedyCost{scratch: s.Clone()}
	}
	for i := 0; i < s.N() && o.disagreed == nil; i++ {
		if s.Halted(i) {
			continue
		}
		got, want := o.restrict.score(s, i), fullScore(o.full, s, i)
		if got != want {
			o.disagreed = fmt.Errorf("step %d, candidate %d (%v): restricted score %d, full scan %d", len(s.Trace()), i, s.PendingStep(i), got, want)
		}
		o.compared++
	}
	if o.disagreed != nil {
		return -1
	}
	return o.drive.Next(s)
}

// oracleFactory resolves every registered algorithm name, register-only
// and RMW alike, as runner.NewFactory does (runner imports machine, so
// this in-package test cannot call it).
func oracleFactory(name string, n int) (program.Factory, error) {
	switch name {
	case "tas":
		return rmw.TestAndSet(n)
	case "mcs":
		return rmw.MCS(n)
	default:
		return mutex.New(name, n)
	}
}

// TestGreedyScoreMatchesFullScan: scoring only the pending readers of the
// register a step changed gives the full scan's score for every live
// candidate at every decision of seeded runs, driven both by greedy-cost
// itself and by random choices, for every registered algorithm.
func TestGreedyScoreMatchesFullScan(t *testing.T) {
	seeds, maxDecisions := 4, 3000
	if testing.Short() {
		seeds, maxDecisions = 3, 2000
	}
	compared, factories := 0, 0
	for _, name := range append(mutex.Names(), "tas", "mcs") {
		for _, n := range []int{2, 4, 8, 16} {
			if name == mutex.NameDekker && n != 2 {
				continue // Dekker's algorithm is two-process only
			}
			f, err := oracleFactory(name, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			factories++
			// GreedyCost is deterministic, so one run covers it; random
			// runs differ by seed.
			drives := []Scheduler{NewGreedyCost()}
			for seed := int64(1); seed <= int64(seeds); seed++ {
				drives = append(drives, NewRandom(seed))
			}
			for k, drive := range drives {
				o := &scoreOracle{drive: drive}
				_, err := Run(NewSystem(f), o, maxDecisions)
				if o.disagreed != nil {
					t.Fatalf("%s n=%d run %d driven by %s: %v", name, n, k, drive.Name(), o.disagreed)
				}
				if _, horizon := err.(ErrHorizon); err != nil && !horizon {
					t.Fatalf("%s n=%d run %d driven by %s: %v", name, n, k, drive.Name(), err)
				}
				compared += o.compared
			}
		}
	}
	t.Logf("%d candidate scores agree over %d factories", compared, factories)
}
