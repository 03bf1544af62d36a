package machine

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Scheduler is the adversary: it chooses which process takes the next step.
// Next returns a process index, or -1 when no process should (or can) be
// scheduled, which ends the run.
type Scheduler interface {
	// Name identifies the scheduling policy for reports.
	Name() string
	// Next picks the next process to step in the given system.
	Next(s *System) int
}

// RoundRobin cycles through processes in index order, skipping halted ones.
// It is a fair scheduler: every live process is scheduled infinitely often.
// Spinning processes keep getting scheduled, so raw access counts grow even
// while SC cost does not — the contrast measured by experiment E8.
type RoundRobin struct {
	next int
}

// NewRoundRobin returns a round-robin scheduler starting at process 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (r *RoundRobin) Next(s *System) int {
	n := s.N()
	for k := 0; k < n; k++ {
		i := (r.next + k) % n
		if !s.Halted(i) {
			r.next = (i + 1) % n
			return i
		}
	}
	return -1
}

// Random schedules a uniformly random live process using a seeded source,
// so runs are reproducible. Random scheduling is fair with probability 1;
// the driver's step horizon bounds the experiment regardless.
type Random struct {
	rng     *rand.Rand
	scratch []int // reusable live-process buffer; Next is on every sweep's hot path
}

// NewRandom returns a seeded random scheduler.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (r *Random) Name() string { return "random" }

// Next implements Scheduler.
func (r *Random) Next(s *System) int {
	if cap(r.scratch) < s.N() {
		r.scratch = make([]int, 0, s.N())
	}
	live := r.scratch[:0]
	for i := 0; i < s.N(); i++ {
		if !s.Halted(i) {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[r.rng.Intn(len(live))]
}

// Solo runs processes one at a time in a fixed order: the first process runs
// until it halts, then the second, and so on. With a mutex algorithm this
// produces a contention-free canonical execution in which critical sections
// are entered in exactly the given order — the sequential baseline the
// construction of Section 5 perturbs.
type Solo struct {
	order []int
	pos   int
}

// NewSolo returns a solo scheduler; order must be a permutation of 0..n-1.
func NewSolo(order []int) *Solo {
	cp := make([]int, len(order))
	copy(cp, order)
	return &Solo{order: cp}
}

// Name implements Scheduler.
func (s *Solo) Name() string { return "solo" }

// Next implements Scheduler.
func (s *Solo) Next(sys *System) int {
	for s.pos < len(s.order) {
		i := s.order[s.pos]
		if !sys.Halted(i) {
			return i
		}
		s.pos++
	}
	return -1
}

// ProgressFirst prefers processes whose next step would change their state,
// breaking ties round-robin. It models a "polite" cache-coherent machine
// where spinning on an unchanged value consumes no shared-memory bandwidth:
// under ProgressFirst, SC cost ≈ steps taken. If no process would change
// state, it schedules the first live process anyway (so that genuine
// deadlocks surface as horizon exhaustion rather than an empty schedule).
type ProgressFirst struct {
	next int
}

// NewProgressFirst returns a progress-first scheduler.
func NewProgressFirst() *ProgressFirst { return &ProgressFirst{} }

// Name implements Scheduler.
func (p *ProgressFirst) Name() string { return "progress-first" }

// Next implements Scheduler.
func (p *ProgressFirst) Next(s *System) int {
	n := s.N()
	fallback := -1
	for k := 0; k < n; k++ {
		i := (p.next + k) % n
		if s.Halted(i) {
			continue
		}
		if fallback < 0 {
			fallback = i
		}
		if s.WouldChangeState(i) {
			p.next = (i + 1) % n
			return i
		}
	}
	if fallback >= 0 {
		p.next = (fallback + 1) % n
	}
	return fallback
}

// HoldCS is an adversarial scheduler that starves the process inside its
// critical section for `delay` scheduling decisions each time someone
// enters, letting the other processes spin. It demonstrates the
// Alur–Taubenfeld phenomenon: total memory accesses grow without bound in
// delay while SC cost stays fixed (experiment E8).
type HoldCS struct {
	delay   int
	holding int // remaining cycles to hold the current CS occupant
	last    int // occupant the hold was armed for (-1 when vacant)
	rr      int
}

// NewHoldCS returns a HoldCS adversary with the given hold length.
func NewHoldCS(delay int) *HoldCS { return &HoldCS{delay: delay, last: -1} }

// Name implements Scheduler.
func (h *HoldCS) Name() string { return fmt.Sprintf("hold-cs(%d)", h.delay) }

// Next implements Scheduler.
func (h *HoldCS) Next(s *System) int {
	n := s.N()
	occupant := s.InCriticalSection()
	if occupant != h.last {
		// Arm the hold exactly once per critical-section entry; re-arming
		// while the same occupant is inside would starve it forever.
		h.last = occupant
		h.holding = 0
		if occupant >= 0 {
			h.holding = h.delay
		}
	}
	for k := 0; k < n; k++ {
		i := (h.rr + k) % n
		if s.Halted(i) {
			continue
		}
		if i == occupant && h.holding > 0 {
			h.holding--
			continue
		}
		h.rr = (i + 1) % n
		return i
	}
	// Everyone else halted: let the occupant run.
	if occupant >= 0 && !s.Halted(occupant) {
		return occupant
	}
	return -1
}

// ErrHorizon is returned by Run when the step horizon is exhausted before
// all processes halt. For a livelock-free algorithm under a fair scheduler
// this indicates either too small a horizon or a liveness bug.
type ErrHorizon struct {
	Steps int
}

// Error implements error.
func (e ErrHorizon) Error() string {
	return fmt.Sprintf("machine: step horizon %d exhausted before all processes halted", e.Steps)
}

// ErrStalled is returned by Run when the scheduler returns -1 while
// un-halted processes remain. Run only consults the scheduler when at least
// one process is live, so a stall is always a scheduler defect (or a
// deliberately truncating adversary) — never normal termination. The
// distinguishable error keeps schedule search honest: a truncated execution
// must be discarded, not scored as a cheap one.
type ErrStalled struct {
	Steps int // steps executed before the stall
	Live  int // un-halted processes at the stall
}

// Error implements error.
func (e ErrStalled) Error() string {
	return fmt.Sprintf("machine: scheduler stalled after %d steps with %d un-halted processes", e.Steps, e.Live)
}

// runReserve sizes the trace arena Run preallocates for a recording
// System; one that streams alone (System.Stream) keeps no arena, and Run
// reserves nothing for it. Horizons are deliberately generous
// (DefaultHorizon(64) is ~2.5M steps) while real canonical runs complete
// orders of magnitude sooner, so Run eagerly reserves only a typical short
// run's worth — scaled with n, since run length grows with contention —
// and lets append's geometric growth cover longer runs. Steady-state
// stepping is allocation-free either way; the cap just keeps a short run
// from paying to zero a worst-case arena.
func runReserve(n, maxSteps int) int {
	return min(maxSteps, 512+64*n)
}

// Run drives the system under the scheduler until every process halts or
// maxSteps steps have executed. It returns the trace, which is empty for a
// System that streams alone. A horizon exhaustion returns the partial
// trace and ErrHorizon; a scheduler that returns -1 while un-halted
// processes remain returns the partial trace and ErrStalled.
func Run(s *System, sched Scheduler, maxSteps int) (model.Execution, error) {
	if reserve := runReserve(s.N(), maxSteps); s.record && reserve > 0 {
		s.Reserve(reserve)
	}
	for t := 0; t < maxSteps; t++ {
		if s.AllHalted() {
			return s.Trace(), nil
		}
		i := sched.Next(s)
		if i < 0 {
			live := 0
			for p := 0; p < s.N(); p++ {
				if !s.Halted(p) {
					live++
				}
			}
			return s.Trace(), ErrStalled{Steps: t, Live: live}
		}
		if _, err := s.Step(i); err != nil {
			return s.Trace(), fmt.Errorf("machine: scheduling process %d: %w", i, err)
		}
	}
	if s.AllHalted() {
		return s.Trace(), nil
	}
	return s.Trace(), ErrHorizon{Steps: maxSteps}
}
