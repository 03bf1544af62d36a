// Package machine simulates the paper's asynchronous shared-memory system:
// n deterministic process automata, a file of atomic registers, and an
// explicit, pluggable scheduler in the role of the adversary.
//
// Nothing here uses goroutines or real concurrency. The paper's cost models
// are defined over the abstract interleaving model, and measuring them on
// real hardware through the Go runtime scheduler would distort them (cache
// behaviour, preemption and spin loops would be timed, not counted). The
// simulator instead executes one step at a time and records exactly the
// quantities the models charge for.
//
// A System decides each step's changed flag as it executes it. It hands
// the step and its flag to its Sink, if one is set (a cost.Acc charges the
// run as it executes), and records both in Trace and Changed unless it was
// told not to: a run nothing replays or renders afterwards keeps no log.
// System.Replay re-executes recorded steps through the same step function;
// ReplayExecution uses it to check an execution that arrives from outside
// its System (decoded, linearized or stored) against the simulator's own
// rules, and to recover the flags a run of it would have recorded.
//
// Concurrency contract for callers that run many simulations in parallel
// (internal/runner): a System and every Scheduler are single-run state and
// must be private to one job — construct them fresh per run (NewSystem,
// Spec.New). A program.Factory, by contrast, is immutable once built
// (programs and register layouts are shared read-only; NewAutomata and
// NewRegisters copy what they need), so one factory instance may safely
// serve any number of concurrent runs.
package machine

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/program"
)

// Section is a process's current protocol section (Section 3.2 of the paper).
type Section uint8

// Sections of the mutual exclusion protocol.
const (
	SecRemainder Section = iota
	SecTrying
	SecCritical
	SecExit
)

// String names the section.
func (s Section) String() string {
	switch s {
	case SecRemainder:
		return "remainder"
	case SecTrying:
		return "trying"
	case SecCritical:
		return "critical"
	case SecExit:
		return "exit"
	default:
		return fmt.Sprintf("Section(%d)", uint8(s))
	}
}

// System is a running n-process shared-memory system. It executes steps
// chosen by a scheduler, decides for each whether it changed its process's
// state (the raw material of the state change cost model), streams both
// to its Sink, records them in the execution trace unless streaming
// alone, and tracks each process's protocol section.
type System struct {
	factory  program.Factory
	n        int // factory.N(), cached: N() sits on the hot path and must not make an interface call
	automata []*program.Automaton
	regs     *model.Registers

	sink    Sink // nil: nothing streams
	record  bool // append each step to trace and changed
	trace   model.Execution
	changed []bool // changed[t]: did step t change its process's state?

	procs []procState

	// steps counts the steps executed and lastProc names the process that
	// took the last one, so a scheduler that caches what it read from the
	// System (GreedyCost) can tell whether exactly its own choice ran.
	steps    int
	lastProc int
}

// Sink receives each step a System executes, as Step executes it.
type Sink interface {
	// Add takes one executed step, with read results filled in, and
	// whether it changed the acting process's state.
	//
	//repro:hotpath
	Add(step model.Step, changed bool)
}

// procState is one process's protocol bookkeeping.
type procState struct {
	section Section
	csDone  int // completed rem steps
}

// NewSystem creates a system in the initial state s_0 for the factory.
func NewSystem(f program.Factory) *System {
	n := f.N()
	s := &System{
		factory:  f,
		n:        n,
		automata: program.NewAutomata(f),
		regs:     program.NewRegisters(f),
		procs:    make([]procState, n),
		record:   true,
	}
	return s
}

// Stream hands every step Step executes from now on, with its changed
// flag, to sink (nil streams nothing), and records them in Trace and
// Changed only when record is set. A System starts recording, with no
// sink; one that streams alone has an empty Trace, and Run reserves no
// trace arena for it. Set it before the run.
func (s *System) Stream(sink Sink, record bool) {
	s.sink, s.record = sink, record
}

// N returns the number of processes.
//
//repro:hotpath
func (s *System) N() int { return s.n }

// Factory returns the algorithm factory the system runs.
func (s *System) Factory() program.Factory { return s.factory }

// Registers exposes the register file (read-only use expected).
func (s *System) Registers() *model.Registers { return s.regs }

// Automaton returns process i's automaton (read-only use expected).
func (s *System) Automaton(i int) *program.Automaton { return s.automata[i] }

// Halted reports whether process i has halted.
//
//repro:hotpath
func (s *System) Halted(i int) bool { return s.automata[i].Halted() }

// AllHalted reports whether every process has halted.
func (s *System) AllHalted() bool {
	for _, a := range s.automata {
		if !a.Halted() {
			return false
		}
	}
	return true
}

// Section returns process i's current protocol section.
func (s *System) Section(i int) Section { return s.procs[i].section }

// Trace returns the execution so far, which is empty for a System that
// streams alone (Stream). The returned slice is owned by the system;
// callers must not modify it.
func (s *System) Trace() model.Execution { return s.trace }

// Changed returns the per-step state-change flags, aligned with Trace.
func (s *System) Changed() []bool { return s.changed }

// PendingStep returns δ applied to process i's current state.
//
//repro:hotpath
func (s *System) PendingStep(i int) model.Step { return s.automata[i].PendingStep() }

// WouldChangeState reports whether process i's pending step would change its
// state if executed now. Writes, RMWs and critical steps always change state
// (they advance the program counter); reads change state according to the
// value currently in the register.
//
//repro:hotpath
func (s *System) WouldChangeState(i int) bool {
	a := s.automata[i]
	step := a.PendingStep()
	switch step.Kind {
	case model.KindRead:
		return a.WouldChangeState(s.regs.Read(step.Reg))
	default:
		return true
	}
}

// Reserve grows the trace and changed arenas to hold at least steps entries
// without reallocating, so a recording run whose length is bounded (every
// run: the driver always has a horizon) appends into preallocated storage
// and the steady-state Step path allocates nothing. Reserving less than the
// eventual length is safe — append falls back to its usual geometric
// growth — so callers cap the reservation rather than pre-paying a worst
// case horizon that canonical runs never reach.
//
//repro:hotpath
func (s *System) Reserve(steps int) {
	if steps <= cap(s.trace)-len(s.trace) {
		return
	}
	trace := make(model.Execution, len(s.trace), len(s.trace)+steps)
	copy(trace, s.trace)
	s.trace = trace
	changed := make([]bool, len(s.changed), len(s.changed)+steps)
	copy(changed, s.changed)
	s.changed = changed
}

// Step executes process i's pending step, hands it and its changed flag
// to the Sink, appends both to the trace when the System records, and
// returns the executed step (with read results filled in). It returns an
// error if the process is halted or violates well-formedness.
//
//repro:hotpath
func (s *System) Step(i int) (model.Step, error) {
	step, changed, err := s.stepNoRecord(i)
	if err != nil {
		return model.Step{}, err
	}
	if s.sink != nil {
		s.sink.Add(step, changed)
	}
	if s.record {
		s.trace = append(s.trace, step)
		s.changed = append(s.changed, changed)
	}
	return step, nil
}

// Replay executes a recorded step as Step would, without streaming it to
// the Sink or appending it to the trace. A step that is not the acting
// process's pending step (the same operation on the same register) is
// refused: the recorded sequence is not an execution of this algorithm.
// Replay returns the executed step, with read results filled in, and the
// changed flag Step would record for it (the SC model charges the shared
// steps among them, Definition 3.1).
//
//repro:hotpath
func (s *System) Replay(step model.Step) (model.Step, bool, error) {
	i := step.Proc
	if i >= 0 && i < s.n && !s.automata[i].Halted() {
		if pending := s.automata[i].PendingStep(); !pending.SameOperation(step) {
			return model.Step{}, false, errNotPending(step, pending)
		}
	}
	return s.stepNoRecord(i)
}

// stepNoRecord executes process i's pending step without appending to the
// trace arenas, reporting whether the step changed the acting process's
// state (the SC model's per-step charge). It is the allocation-free core of
// Step and Replay.
//
//repro:hotpath
func (s *System) stepNoRecord(i int) (model.Step, bool, error) {
	if i < 0 || i >= s.N() {
		return model.Step{}, false, errNoProcess(i)
	}
	a := s.automata[i]
	if a.Halted() {
		return model.Step{}, false, errHalted(i)
	}
	step := a.PendingStep()
	if err := s.checkStep(i, step); err != nil {
		return model.Step{}, false, err
	}
	s.steps++
	s.lastProc = i
	var changed bool
	switch step.Kind {
	case model.KindRead:
		v := s.regs.Read(step.Reg)
		step.Val = v
		changed = a.FeedChanged(v)
	case model.KindWrite:
		s.regs.Write(step.Reg, step.Val)
		changed = a.FeedChanged(0)
	case model.KindRMW:
		old := s.regs.ApplyRMW(step.Reg, step.RMW, step.Arg1, step.Arg2)
		step.Val = old
		changed = a.FeedChanged(old)
	case model.KindCrit:
		s.applyCrit(i, step.Crit)
		changed = a.FeedChanged(0)
	}
	return step, changed, nil
}

// Cold error constructors for the step path: fmt.Errorf allocates its
// argument pack, so the hot functions above delegate formatting here and
// pay for it only on the error paths that end a run anyway.

//repro:hotpath-ok cold error path: a run that names a missing process is over
func errNoProcess(i int) error { return fmt.Errorf("machine: no process %d", i) }

//repro:hotpath-ok cold error path: stepping a halted process ends the run
func errHalted(i int) error { return fmt.Errorf("machine: process %d is halted", i) }

//repro:hotpath-ok cold error path: a replay that diverges from the algorithm ends it
func errNotPending(step, pending model.Step) error {
	return fmt.Errorf("machine: process %d: recorded step %v does not match pending step %v", step.Proc, step, pending)
}

//repro:hotpath-ok cold error path: an out-of-range register ends the run
func errRegRange(i int, reg model.RegID, size int) error {
	return fmt.Errorf("machine: process %d: register %d out of range [0,%d)", i, reg, size)
}

// critWant maps each critical step kind to the section a process must be in
// to take it — the well-formedness cycle try → enter → exit → rem as a
// static table (a per-step map literal here was the simulator's single
// largest allocation source).
var critWant = [4]Section{
	model.CritTry:   SecRemainder,
	model.CritEnter: SecTrying,
	model.CritExit:  SecCritical,
	model.CritRem:   SecExit,
}

// checkStep refuses process i's pending step if i may not take it now: a
// shared step on a register outside the file, or a critical step out of
// the well-formedness cycle try → enter → exit → rem. stepNoRecord and the
// greedy lookahead both ask it, so a candidate is scored exactly when it
// could be executed.
//
//repro:hotpath
func (s *System) checkStep(i int, step model.Step) error {
	if step.IsShared() && (step.Reg < 0 || int(step.Reg) >= s.regs.Len()) {
		return errRegRange(i, step.Reg, s.regs.Len())
	}
	if step.Kind == model.KindCrit {
		if sec := s.procs[i].section; int(step.Crit) >= len(critWant) || sec != critWant[step.Crit] {
			return errBadCrit(i, step.Crit, sec)
		}
	}
	return nil
}

// applyCrit advances process i's protocol section along the cycle
// checkStep enforces.
//
//repro:hotpath
func (s *System) applyCrit(i int, c model.CritKind) {
	p := &s.procs[i]
	switch c {
	case model.CritTry:
		p.section = SecTrying
	case model.CritEnter:
		p.section = SecCritical
	case model.CritExit:
		p.section = SecExit
	case model.CritRem:
		p.section = SecRemainder
		p.csDone++
	}
}

//repro:hotpath-ok cold error path: a well-formedness violation ends the run
func errBadCrit(i int, c model.CritKind, sec Section) error {
	return fmt.Errorf("machine: process %d: %s step while in %s section", i, c, sec)
}

// InCriticalSection returns the process currently in its critical section,
// or -1 if none. Mutual exclusion violations are reported by
// internal/verify; the system itself permits them so that buggy algorithms
// can be executed and diagnosed.
func (s *System) InCriticalSection() int {
	for i, p := range s.procs {
		if p.section == SecCritical {
			return i
		}
	}
	return -1
}
