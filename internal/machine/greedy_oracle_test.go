package machine

import (
	"fmt"
	"testing"

	"repro/internal/mutex"
	"repro/internal/program"
	"repro/internal/rmw"
)

// cloneSystem copies s's automata, registers and sections, and leaves the
// trace behind: the copy only has to answer what one more step would do.
func cloneSystem(s *System) *System {
	automata := make([]*program.Automaton, len(s.automata))
	for i, a := range s.automata {
		automata[i] = a.Clone()
	}
	return &System{
		factory:  s.factory,
		n:        s.n,
		automata: automata,
		regs:     s.regs.Clone(),
		procs:    append([]procState(nil), s.procs...),
	}
}

// fullScore is GreedyCost.score by brute force: it executes process i's
// step on a copy of s and asks every other live process, before and after
// that step, whether its pending step would change its state. It shares
// nothing with the lookahead except the step function, and is the oracle
// the lookahead must agree with.
func fullScore(s *System, i int) int {
	c := cloneSystem(s)
	step, changed, err := c.stepNoRecord(i)
	if err != nil {
		return minScore + 1
	}
	score := 0
	if step.IsShared() && changed {
		score += 2
	}
	for j := 0; j < s.N(); j++ {
		if j == i || s.Halted(j) || c.Halted(j) {
			continue
		}
		if p := s.PendingStep(j); p.IsShared() && (p.Reg < 0 || int(p.Reg) >= s.regs.Len()) {
			continue // refused whatever the registers hold: no charge to flip
		}
		before, after := s.WouldChangeState(j), c.WouldChangeState(j)
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
	greedy    GreedyCost
	compared  int
	refused   int // candidates both scorers refused (minScore+1)
	disagreed error
}

func (o *scoreOracle) Name() string { return "score-oracle(" + o.drive.Name() + ")" }

func (o *scoreOracle) Next(s *System) int {
	for i := 0; i < s.N() && o.disagreed == nil; i++ {
		if s.Halted(i) {
			continue
		}
		got, want := o.greedy.score(s, i), fullScore(s, i)
		if got != want {
			o.disagreed = fmt.Errorf("step %d, candidate %d (%v): lookahead score %d, full scan %d", len(s.Trace()), i, s.PendingStep(i), got, want)
		}
		if got == minScore+1 {
			o.refused++
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

// illFormedFactories are two-process algorithms in which process 0 is
// well-formed and process 1 reaches a step no System may execute: an enter
// without try, or a read of a register outside the file.
func illFormedFactories(t *testing.T) []program.Factory {
	t.Helper()
	var out []program.Factory
	for _, bad := range []string{"enter-without-try", "read-out-of-range"} {
		layout := mutex.NewLayout()
		flag := layout.Reg("flag", 0, -1)

		b0 := program.NewBuilder(bad + "/0")
		b0.Try()
		b0.Write(flag, program.Const(1))
		b0.Enter()
		b0.Exit()
		b0.Rem()
		b0.Halt()

		b1 := program.NewBuilder(bad + "/1")
		if bad == "read-out-of-range" {
			b1.Try()
			b1.Read(flag+5, b1.Var("x"))
		}
		b1.Enter()
		b1.Exit()
		b1.Rem()
		b1.Halt()
		out = append(out, mutex.NewFactory(bad, layout, []*program.Program{b0.MustBuild(), b1.MustBuild()}))
	}
	return out
}

// TestGreedyScoreMatchesFullScan: the lookahead, which executes nothing and
// rescores only the pending readers of the register a step changes, gives
// the full scan's score for every live candidate at every decision of
// seeded runs, driven both by greedy-cost itself and by random choices,
// for every registered algorithm. On the ill-formed factories both refuse
// the step the System refuses, and greedy-cost ends the run with the error
// round-robin ends it with.
func TestGreedyScoreMatchesFullScan(t *testing.T) {
	seeds, maxDecisions := 4, 3000
	if testing.Short() {
		seeds, maxDecisions = 3, 2000
	}
	var factories []program.Factory
	for _, name := range append(mutex.Names(), "tas", "mcs") {
		for _, n := range []int{2, 4, 8, 16} {
			if name == mutex.NameDekker && n != 2 {
				continue // Dekker's algorithm is two-process only
			}
			f, err := oracleFactory(name, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			factories = append(factories, f)
		}
	}
	wellFormed := len(factories)
	factories = append(factories, illFormedFactories(t)...)

	compared := 0
	for fi, f := range factories {
		name, n := f.Name(), f.N()
		_, wantErr := Run(NewSystem(f), NewRoundRobin(), maxDecisions)
		if _, horizon := wantErr.(ErrHorizon); horizon {
			wantErr = nil
		}
		if (wantErr != nil) != (fi >= wellFormed) {
			t.Fatalf("%s n=%d: round-robin run ended with %v", name, n, wantErr)
		}
		// GreedyCost is deterministic, so one run covers it; random runs
		// differ by seed.
		drives := []Scheduler{NewGreedyCost()}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			drives = append(drives, NewRandom(seed))
		}
		refused := 0
		for k, drive := range drives {
			o := &scoreOracle{drive: drive}
			_, err := Run(NewSystem(f), o, maxDecisions)
			if o.disagreed != nil {
				t.Fatalf("%s n=%d run %d driven by %s: %v", name, n, k, drive.Name(), o.disagreed)
			}
			if _, horizon := err.(ErrHorizon); horizon {
				err = nil
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s n=%d run %d driven by %s: got error %v, round-robin's is %v", name, n, k, drive.Name(), err, wantErr)
			}
			compared += o.compared
			refused += o.refused
		}
		if (refused > 0) != (fi >= wellFormed) {
			t.Fatalf("%s n=%d: %d candidates scored minScore+1", name, n, refused)
		}
	}
	t.Logf("%d candidate scores agree over %d factories", compared, len(factories))
}
