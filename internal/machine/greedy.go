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
//
// A score moves only when its inputs do, so GreedyCost keeps each live
// process's score across decisions, with the kind and register of that
// process's pending step, and before a decision rescores only the
// processes the last step can have moved:
//
//   - the process that took it (its automaton, section and pending step
//     moved);
//   - every process pending on the step's register, when the step changed
//     that register's value (a read's charge and a writer's lookahead both
//     read the value);
//   - every process with a pending write or RMW on a register whose
//     pending readers include the actor before or after its step: a
//     writer's induced term counts those readers, and no other reader
//     moved.
//
// Every other process keeps its score, and the argmax over the scores,
// its tie-break and its patience are those of a full rescoring. The cache
// holds only when exactly one step ran on the same System since the last
// decision, and that step was the chosen process's (System counts its
// steps and remembers the last actor); otherwise Next rescores every live
// process.
type GreedyCost struct {
	rr    int          // rotating tie-break cursor
	t     int          // decisions taken
	procs []greedyProc // per-process cache; nil until the first decision

	// What the cache was last brought up to date with: the System, its
	// step count then, the process chosen and, for a write or RMW, the
	// value its register held before the step.
	sys    *System
	steps  int
	chosen int
	before model.Value
}

// greedyProc is GreedyCost's state for one process.
type greedyProc struct {
	sched  int         // GreedyCost.t when last scheduled: t - sched decisions unscheduled
	score  int         // the process's score, unless stale
	stale  bool        // score must be recomputed before it is read
	halted bool        // the process has halted
	kind   model.Kind  // pending step's kind; KindCrit once halted (pending on no register)
	reg    model.RegID // pending step's register, for a read, write or RMW
}

// NewGreedyCost returns a greedy cost-maximizing scheduler.
func NewGreedyCost() *GreedyCost { return &GreedyCost{} }

// Name implements Scheduler.
func (g *GreedyCost) Name() string { return "greedy-cost" }

// Next implements Scheduler.
//
//repro:hotpath
func (g *GreedyCost) Next(s *System) int {
	n := s.N()
	if g.procs == nil {
		g.procs = make([]greedyProc, n)
	}
	if g.sys == s && s.steps == g.steps+1 && s.lastProc == g.chosen {
		g.invalidate(s)
	} else {
		for i := range g.procs {
			g.refresh(s, i)
		}
	}
	best, bestScore := -1, minScore
	patience := 3 * n
	for k, i := 0, g.rr; k < n; k, i = k+1, i+1 {
		if i == n {
			i = 0
		}
		p := &g.procs[i]
		if p.halted {
			continue
		}
		if g.t-p.sched >= patience {
			// Starvation bound: the schedule charged everything it could
			// out of delaying this process; let it take one step.
			best = i
			break
		}
		if p.stale {
			p.score, p.stale = g.score(s, i), false
		}
		if p.score > bestScore {
			best, bestScore = i, p.score
		}
	}
	g.sys, g.steps, g.chosen = s, s.steps, best
	if best >= 0 {
		g.rr = (best + 1) % n
		g.t++
		p := &g.procs[best]
		p.sched = g.t
		if (p.kind == model.KindWrite || p.kind == model.KindRMW) && p.reg >= 0 && int(p.reg) < s.regs.Len() {
			g.before = s.regs.Read(p.reg)
		}
	}
	return best
}

// refresh marks process i's score stale and reads whether it halted and
// its pending step's kind and register.
//
//repro:hotpath
func (g *GreedyCost) refresh(s *System, i int) {
	p := &g.procs[i]
	p.stale, p.halted, p.kind, p.reg = true, s.Halted(i), model.KindCrit, 0
	if !p.halted {
		step := s.automata[i].PendingStep()
		p.kind, p.reg = step.Kind, step.Reg
	}
}

// invalidate brings the cache up to date with the one step the chosen
// process took since the last decision: it refreshes that process and
// marks stale the scores the step can have moved (the rule in GreedyCost's
// comment).
//
//repro:hotpath
func (g *GreedyCost) invalidate(s *System) {
	a := &g.procs[g.chosen]
	oldKind, oldReg := a.kind, a.reg
	changed := (oldKind == model.KindWrite || oldKind == model.KindRMW) && s.regs.Read(oldReg) != g.before
	g.refresh(s, g.chosen)
	newKind, newReg := a.kind, a.reg
	for j := range g.procs {
		// A critical step's score, and a halted process's, reads its own
		// process only.
		switch p := &g.procs[j]; p.kind {
		case model.KindRead: // its charge reads the register's value
			if changed && p.reg == oldReg {
				p.stale = true
			}
		case model.KindWrite, model.KindRMW: // its lookahead reads the value and the register's readers
			if p.reg == oldReg && (changed || oldKind == model.KindRead) || p.reg == newReg && newKind == model.KindRead {
				p.stale = true
			}
		}
	}
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
