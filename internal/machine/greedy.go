package machine

import (
	"fmt"

	"repro/internal/model"
)

// GreedyCost is a cost-maximizing adversary: at every decision it performs a
// one-step lookahead for each live process and schedules the process whose
// step maximizes incremental SC cost. The lookahead scores two effects of
// executing a step now:
//
//   - the immediate charge: whether the step itself is a state-changing
//     shared step (Definition 3.1 charges exactly those);
//   - the induced charges: how many *other* processes' pending reads flip
//     from free to charged (a write that wakes spinners plants that many
//     future charges) minus how many flip from charged to free (silencing
//     rivals forfeits cost the adversary had already provoked).
//
// One step moves only the acting process's automaton and at most one
// register, so the lookahead reads everything it needs from the live
// System without executing the step: its charge from a speculative feed
// of the acting automaton, the register's new value from the written
// value or model.RMWResult, and the rescored answers of only the pending
// readers of the register a write or RMW changed. Every other process's
// answer is unchanged.
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

// minScore is below any reachable score, so even a process whose pending
// step the System refuses is scheduled when it is the only live one
// (letting Run surface the error instead of reporting a stall).
const minScore = -1 << 30

// score counts the immediate SC charge of process i's pending step plus
// the net induced charges on the other processes' pending reads, without
// executing the step: the live System is left exactly as it was. A step
// that checkStep refuses, and that stepNoRecord would therefore refuse,
// scores minScore+1.
//
//repro:hotpath
func (g *GreedyCost) score(s *System, i int) int {
	a := s.automata[i]
	step := a.PendingStep()
	if s.checkStep(i, step) != nil {
		return minScore + 1
	}
	if !step.IsShared() {
		return 0 // a critical step is never charged and changes no register
	}
	before := s.regs.Read(step.Reg)
	score := 0
	if a.WouldChangeState(before) { // what a read or RMW reads; Feed ignores it for a write
		score += 2
	}
	// Only a write or RMW that changes its register can flip another
	// process's pending read: the other processes' automata are untouched.
	after := step.Val // a write's value
	switch step.Kind {
	case model.KindRead:
		return score
	case model.KindRMW:
		after = model.RMWResult(step.RMW, before, step.Arg1, step.Arg2)
	}
	if before == after {
		return score
	}
	for j := 0; j < s.N(); j++ {
		if j == i || s.Halted(j) {
			continue
		}
		aj := s.automata[j]
		if p := aj.PendingStep(); p.Kind != model.KindRead || p.Reg != step.Reg {
			continue
		}
		wasCharged, isCharged := aj.WouldChangeState(before), aj.WouldChangeState(after)
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
