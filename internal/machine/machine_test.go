package machine_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
	"repro/internal/rmw"
)

// pingPong builds a 2-process algorithm: process 0 writes 1 to r0, enters;
// process 1 spins on r0 then enters. Used to test scheduling mechanics.
func pingPong(t *testing.T) program.Factory {
	t.Helper()
	layout := mutex.NewLayout()
	flag := layout.Reg("flag", 0, -1)

	b0 := program.NewBuilder("pp/0")
	b0.Try()
	b0.Write(flag, program.Const(1))
	b0.Enter()
	b0.Exit()
	b0.Rem()
	b0.Halt()

	b1 := program.NewBuilder("pp/1")
	x := b1.Var("x")
	b1.Try()
	b1.Spin(flag, x, program.Ne(x, program.Const(0)))
	b1.Enter()
	b1.Exit()
	b1.Rem()
	b1.Halt()

	p0, err := b0.Build()
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b1.Build()
	if err != nil {
		t.Fatal(err)
	}
	return mutex.NewFactory("ping-pong", layout, []*program.Program{p0, p1})
}

func TestSystemStepAndSections(t *testing.T) {
	s := machine.NewSystem(pingPong(t))
	if s.Section(0) != machine.SecRemainder {
		t.Fatal("processes start in the remainder section")
	}
	if _, err := s.Step(0); err != nil { // try_0
		t.Fatal(err)
	}
	if s.Section(0) != machine.SecTrying {
		t.Fatalf("section after try = %v", s.Section(0))
	}
	if _, err := s.Step(0); err != nil { // write
		t.Fatal(err)
	}
	if _, err := s.Step(0); err != nil { // enter
		t.Fatal(err)
	}
	if s.InCriticalSection() != 0 {
		t.Fatal("process 0 should be in its critical section")
	}
	if _, err := s.Step(0); err != nil { // exit
		t.Fatal(err)
	}
	if _, err := s.Step(0); err != nil { // rem
		t.Fatal(err)
	}
	if machine.CSCompleted(s, 0) != 1 || s.Section(0) != machine.SecRemainder {
		t.Fatal("cycle not recorded")
	}
	if _, err := s.Step(0); err == nil { // halted
		t.Fatal("stepping a halted process should error")
	}
	if _, err := s.Step(7); err == nil {
		t.Fatal("stepping an unknown process should error")
	}
}

func TestSpinStepsAreFree(t *testing.T) {
	s := machine.NewSystem(pingPong(t))
	if _, err := s.Step(1); err != nil { // try_1
		t.Fatal(err)
	}
	// Process 1 spins on r0 = 0: its reads must not change state.
	for i := 0; i < 4; i++ {
		if s.WouldChangeState(1) {
			t.Fatal("spin read on unset flag should not change state")
		}
		if _, err := s.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	changed := s.Changed()
	// Steps: try (changes), then 4 free spin reads.
	if !changed[0] {
		t.Fatal("try should change state")
	}
	for i := 1; i < 5; i++ {
		if changed[i] {
			t.Fatalf("spin read %d charged", i)
		}
	}
}

func TestRunRoundRobinCompletes(t *testing.T) {
	s := machine.NewSystem(pingPong(t))
	trace, err := machine.Run(s, machine.NewRoundRobin(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllHalted() {
		t.Fatal("system should complete")
	}
	if got := trace.EntryOrder(); len(got) != 2 {
		t.Fatalf("entries %v", got)
	}
}

func TestSoloScheduler(t *testing.T) {
	f, err := mutex.Bakery(4)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := machine.RunCanonical(f, machine.NewSolo([]int{3, 1, 0, 2}), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 0, 2}
	got := exec.EntryOrder()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solo entry order %v, want %v", got, want)
		}
	}
}

func TestRandomSchedulerDeterministicPerSeed(t *testing.T) {
	f, err := mutex.YangAnderson(5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := machine.RunCanonical(f, machine.NewRandom(123), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.RunCanonical(f, machine.NewRandom(123), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different executions")
	}
}

func TestHoldCSCompletesForAllDelays(t *testing.T) {
	for _, delay := range []int{0, 1, 5, 100} {
		f, err := mutex.YangAnderson(4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := machine.RunCanonical(f, machine.NewHoldCS(delay), 4_000_000); err != nil {
			t.Fatalf("delay=%d: %v", delay, err)
		}
	}
}

// TestReplayMatchesSystem replays a scheduled run's trace on a fresh
// system: every replayed step and changed flag must equal the recorded
// one — for register locks and for an RMW lock, under a fixed and a random
// scheduler.
func TestReplayMatchesSystem(t *testing.T) {
	yang, err := mutex.YangAnderson(4)
	if err != nil {
		t.Fatal(err)
	}
	bakery, err := mutex.Bakery(4)
	if err != nil {
		t.Fatal(err)
	}
	mcs, err := rmw.MCS(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []program.Factory{yang, bakery, mcs} {
		algo := f.Name()
		for _, spec := range []machine.Spec{machine.RoundRobinSpec(), machine.RandomSpec(7)} {
			sched, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			s := machine.NewSystem(f)
			if _, err := machine.Run(s, sched, machine.DefaultHorizon(4)); err != nil {
				t.Fatalf("%s/%s: %v", algo, spec, err)
			}
			exec, changed := s.Trace(), s.Changed()
			r := machine.NewSystem(f)
			for i, step := range exec {
				done, c, err := r.Replay(step)
				if err != nil {
					t.Fatalf("%s/%s: step %d: %v", algo, spec, i, err)
				}
				if done != step {
					t.Fatalf("%s/%s: step %d replayed as %v, recorded %v", algo, spec, i, done, step)
				}
				if c != changed[i] {
					t.Fatalf("%s/%s: step %d (%v) changed=%v, recorded %v", algo, spec, i, step, c, changed[i])
				}
			}
		}
	}
}

func TestReplayRejectsForeignSteps(t *testing.T) {
	f := pingPong(t)
	s := machine.NewSystem(f)
	// Process 0's first step is try, not a write.
	if _, _, err := s.Replay(model.Step{Proc: 0, Kind: model.KindWrite, Reg: 0, Val: 1}); err == nil {
		t.Fatal("mismatched step accepted")
	}
	if _, _, err := s.Replay(model.Step{Proc: 9}); err == nil {
		t.Fatal("unknown process accepted")
	}
}

func TestErrHorizonType(t *testing.T) {
	f, err := mutex.Bakery(3)
	if err != nil {
		t.Fatal(err)
	}
	_, err = machine.RunCanonical(f, machine.NewRoundRobin(), 3)
	var h machine.ErrHorizon
	if !errors.As(err, &h) || h.Steps != 3 {
		t.Fatalf("want ErrHorizon{3}, got %v", err)
	}
	if h.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestSchedulerNames(t *testing.T) {
	for _, c := range []struct {
		s    machine.Scheduler
		want string
	}{
		{machine.NewRoundRobin(), "round-robin"},
		{machine.NewRandom(1), "random"},
		{machine.NewSolo(perm.Identity(2)), "solo"},
		{machine.NewProgressFirst(), "progress-first"},
		{machine.NewHoldCS(5), "hold-cs(5)"},
		{machine.NewGreedyCost(), "greedy-cost"},
		{machine.NewPrefixGreedy([]int{0, 1, 0}), "prefix-greedy(3)"},
	} {
		if got := c.s.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestProgressFirstSkipsSpinners(t *testing.T) {
	f := pingPong(t)
	s := machine.NewSystem(f)
	sched := machine.NewProgressFirst()
	// After both tries, process 1 spins; progress-first must keep
	// scheduling process 0 until the flag is set.
	steps := 0
	for !s.AllHalted() && steps < 100 {
		i := sched.Next(s)
		if i < 0 {
			break
		}
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if !s.AllHalted() {
		t.Fatal("did not complete")
	}
	// A perfectly progress-first schedule of ping-pong has no free steps.
	for i, ch := range s.Changed() {
		if !ch && s.Trace()[i].IsShared() {
			t.Fatalf("progress-first scheduled a free step at %d: %v", i, s.Trace()[i])
		}
	}
}

func TestDefaultHorizonMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{1, 2, 8, 64} {
		h := machine.DefaultHorizon(n)
		if h <= prev {
			t.Fatalf("DefaultHorizon(%d) = %d not increasing", n, h)
		}
		prev = h
	}
}

func TestRunCanonicalRejectsMultipleCycles(t *testing.T) {
	// A program doing two cycles violates the canonical-run contract.
	layout := mutex.NewLayout()
	layout.Reg("unused", 0, -1)
	b := program.NewBuilder("twice")
	for i := 0; i < 2; i++ {
		b.Try()
		b.Enter()
		b.Exit()
		b.Rem()
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := mutex.NewFactory("twice", layout, []*program.Program{p})
	_, err = machine.RunCanonical(f, machine.NewRoundRobin(), 0)
	if err == nil {
		t.Fatal("two-cycle run accepted as canonical")
	}
	if want := "completed 2"; !contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWellFormednessEnforced(t *testing.T) {
	// enter without try must be rejected by the system itself.
	layout := mutex.NewLayout()
	layout.Reg("u", 0, -1)
	b := program.NewBuilder("bad-order")
	b.Enter()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := mutex.NewFactory("bad-order", layout, []*program.Program{p})
	s := machine.NewSystem(f)
	if _, err := s.Step(0); err == nil {
		t.Fatal("enter while in remainder section accepted")
	}
	// Replay executes through the same step function, so it refuses the
	// same recorded step.
	enter := model.Step{Proc: 0, Kind: model.KindCrit, Crit: model.CritEnter}
	if _, _, err := machine.NewSystem(f).Replay(enter); err == nil {
		t.Fatal("replayed enter while in remainder section accepted")
	}
}

func TestTraceIsAppendOnly(t *testing.T) {
	f := pingPong(t)
	s := machine.NewSystem(f)
	for i := 0; i < 3; i++ {
		if _, err := s.Step(0); err != nil {
			t.Fatal(err)
		}
		if len(s.Trace()) != i+1 || len(s.Changed()) != i+1 {
			t.Fatalf("trace/changed length mismatch at step %d", i)
		}
	}
}

func ExampleRun() {
	f, _ := mutex.YangAnderson(2)
	s := machine.NewSystem(f)
	trace, _ := machine.Run(s, machine.NewRoundRobin(), 10000)
	fmt.Println("entries:", trace.EntryOrder())
	// Output: entries: [0 1]
}
