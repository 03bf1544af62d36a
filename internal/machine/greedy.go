package machine

import (
	"fmt"

	"repro/internal/model"
)

// GreedyCost is a cost-maximizing adversary: at every decision it performs a
// one-step lookahead for each live process on a cloned System and schedules
// the process whose step maximizes incremental SC cost. The lookahead scores
// two effects of executing a step now:
//
//   - the immediate charge: whether the step itself is a state-changing
//     shared step (Definition 3.1 charges exactly those);
//   - the induced charges: how many *other* processes' pending reads flip
//     from free to charged (a write that wakes spinners plants that many
//     future charges) minus how many flip from charged to free (silencing
//     rivals forfeits cost the adversary had already provoked).
//
// One step moves only the acting process's automaton and at most one
// register, so only the pending readers of the register a write or RMW
// changed are rescored; every other process's answer is unchanged.
//
// Immediate charges are certain while induced ones are speculative, so the
// immediate term is weighted double. Ties rotate through a cursor so that a
// zero-score standoff (everyone spinning freely) still cycles through the
// live processes.
//
// Pure cost greed can livelock: for a non-local-spin algorithm (Peterson's
// tournament spins across two registers, so every spin read is charged) the
// spinners outscore the process sitting at its free enter step forever, and
// the canonical run never completes. Greed is therefore bounded by a
// starvation patience: a live process left unscheduled for 3n consecutive
// decisions is scheduled unconditionally. The schedule stays maximally
// expensive — spinners still absorb ~3n charged steps per forced decision —
// while every deadlock-free algorithm completes its canonical run, so the
// scheduler is usable both as a fixed tournament policy and as the
// completion tail of search candidates.
type GreedyCost struct {
	rr  int   // rotating tie-break cursor
	age []int // decisions since each process was last scheduled

	// scratch is the reusable lookahead system: score re-seeds it from the
	// live system (System.copyFrom) and steps it without trace recording,
	// so one decision costs zero allocations instead of n full clones each
	// of which would privatize the whole recorded trace on its first step.
	scratch *System
}

// NewGreedyCost returns a greedy cost-maximizing scheduler.
func NewGreedyCost() *GreedyCost { return &GreedyCost{} }

// Name implements Scheduler.
func (g *GreedyCost) Name() string { return "greedy-cost" }

// Next implements Scheduler.
func (g *GreedyCost) Next(s *System) int {
	n := s.N()
	if g.age == nil {
		g.age = make([]int, n)
	}
	if g.scratch == nil {
		// Seed the reusable lookahead system here, outside the per-candidate
		// hot loop: score stays allocation-free on every call.
		g.scratch = s.Clone()
	}
	best, bestScore := -1, minScore
	patience := 3 * n
	for k := 0; k < n; k++ {
		i := (g.rr + k) % n
		if s.Halted(i) {
			continue
		}
		if g.age[i] >= patience {
			// Starvation bound: the schedule charged everything it could
			// out of delaying this process; let it take one step.
			best = i
			break
		}
		if sc := g.score(s, i); sc > bestScore {
			best, bestScore = i, sc
		}
	}
	if best >= 0 {
		g.rr = (best + 1) % n
		for i := range g.age {
			g.age[i]++
		}
		g.age[best] = 0
	}
	return best
}

// minScore is below any reachable score, so even a process whose lookahead
// step errors is scheduled when it is the only live one (letting Run surface
// the error instead of reporting a stall).
const minScore = -1 << 30

// score executes process i's pending step on the reusable scratch system
// and counts the immediate SC charge plus the net induced charges on the
// other processes' pending reads. The scratch is re-seeded from s before
// every candidate, so the speculative step never touches the live system.
// Next seeds the scratch before its candidate loop, so score never clones.
//
//repro:hotpath
func (g *GreedyCost) score(s *System, i int) int {
	g.scratch.copyFrom(s)
	step, changed, err := g.scratch.stepNoRecord(i)
	if err != nil {
		return minScore + 1
	}
	score := 0
	if step.IsShared() && changed {
		score += 2
	}
	// Only a pending read can flip (WouldChangeState is constant true for
	// writes, RMWs and critical steps), and only if the step changed the
	// register it reads: a read or critical step changes no register, and
	// the other processes' automata are untouched.
	if step.Kind != model.KindWrite && step.Kind != model.KindRMW {
		return score
	}
	before, after := s.regs.Read(step.Reg), g.scratch.regs.Read(step.Reg)
	if before == after {
		return score
	}
	for j := 0; j < s.N(); j++ {
		if j == i || s.Halted(j) {
			continue
		}
		a := s.automata[j]
		if p := a.PendingStep(); p.Kind != model.KindRead || p.Reg != step.Reg {
			continue
		}
		wasCharged, isCharged := a.WouldChangeState(before), a.WouldChangeState(after)
		switch {
		case isCharged && !wasCharged:
			score++
		case wasCharged && !isCharged:
			score--
		}
	}
	return score
}

// PrefixGreedy replays an explicit decision prefix — the genome of the
// schedule-search candidates in internal/adversary — and then hands over to
// a fresh GreedyCost completion so every candidate runs to a full canonical
// execution. Prefix entries naming halted (or out-of-range) processes are
// skipped rather than scheduled, which keeps every prefix over [0,n)
// well-formed for every algorithm: mutations can edit entries freely without
// producing invalid schedules.
type PrefixGreedy struct {
	prefix []int
	pos    int
	tail   *GreedyCost
}

// NewPrefixGreedy returns a scheduler that follows the decision prefix and
// completes with greedy cost maximization.
func NewPrefixGreedy(prefix []int) *PrefixGreedy {
	cp := make([]int, len(prefix))
	copy(cp, prefix)
	return &PrefixGreedy{prefix: cp, tail: NewGreedyCost()}
}

// Name implements Scheduler.
func (p *PrefixGreedy) Name() string { return fmt.Sprintf("prefix-greedy(%d)", len(p.prefix)) }

// Next implements Scheduler.
func (p *PrefixGreedy) Next(s *System) int {
	for p.pos < len(p.prefix) {
		i := p.prefix[p.pos]
		p.pos++
		if i >= 0 && i < s.N() && !s.Halted(i) {
			return i
		}
	}
	return p.tail.Next(s)
}
