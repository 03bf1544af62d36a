package machine_test

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
	"repro/internal/rmw"
)

// rmwChurnFactory builds an n-process never-halting workload whose loop
// includes an RMW step alongside crit, write and read steps, so the alloc
// guards cover every step kind System.Step can execute.
func rmwChurnFactory(tb testing.TB, n int) program.Factory {
	tb.Helper()
	layout := mutex.NewLayout()
	lock := layout.Reg("lock", 0, -1)
	flags := make([]model.RegID, n)
	for i := range flags {
		flags[i] = layout.Reg(fmt.Sprintf("F[%d]", i), 0, i)
	}
	progs := make([]*program.Program, n)
	for i := 0; i < n; i++ {
		b := program.NewBuilder(fmt.Sprintf("rmw-churn/%d", i))
		x := b.Var("x")
		b.Label("loop")
		b.Try()
		b.Enter()
		b.Exit()
		b.Rem()
		b.RMW(model.RMWFetchAndAdd, lock, program.Const(1), program.Const(0), x)
		b.Write(flags[i], x)
		b.Read(flags[(i+1)%n], x)
		b.Goto("loop")
		p, err := b.Build()
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = p
	}
	return mutex.NewFactory("rmw-churn", layout, progs)
}

// stepAllocs measures steady-state allocations per System.Step over a
// never-halting workload. A recording System gets a pre-reserved trace
// arena; a streaming one hands each step to a cost.Acc, records nothing,
// and is reserved nothing, as Run leaves it.
func stepAllocs(t *testing.T, f program.Factory, runs int, stream bool) float64 {
	t.Helper()
	s := machine.NewSystem(f)
	if stream {
		s.Stream(cost.NewAcc(f), false)
	} else {
		s.Reserve(runs + 8*f.N() + 2)
	}
	for w := 0; w < 4*f.N(); w++ { // warm-up: every process past its first lap
		if _, err := s.Step(w % f.N()); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	return testing.AllocsPerRun(runs, func() {
		if _, err := s.Step(step % f.N()); err != nil {
			t.Fatal(err)
		}
		step++
	})
}

// TestStepZeroAlloc is the regression guard for the flattened hot loop: a
// steady-state System.Step — across read, write, RMW and critical step
// kinds, on a recording System with its trace arena reserved and on one
// streaming into a cost.Acc alone — must not allocate. The per-step map
// literal the old applyCrit built and the two StateKey strings the old
// Step built would each trip this.
func TestStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    program.Factory
	}{
		{"read-write-crit", churnFactory(t, 4)},
		{"rmw", rmwChurnFactory(t, 4)},
	} {
		for _, stream := range []bool{false, true} {
			if got := stepAllocs(t, tc.f, 200, stream); got != 0 {
				t.Errorf("%s (streaming %v): %.1f allocs per steady-state Step, want 0", tc.name, stream, got)
			}
		}
	}
}

// TestStepZeroAllocSpin covers the free-read shape: spinning reads that do
// not change the spinner's state (the most common step in adversarial
// schedules) must also be allocation-free.
func TestStepZeroAllocSpin(t *testing.T) {
	const runs = 200
	s := machine.NewSystem(spinFactory(t, 4))
	s.Reserve(runs + 16)
	for i := 1; i < 4; i++ { // park every spinner on its read
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := s.Step(1 + step%3); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if got != 0 {
		t.Errorf("%.1f allocs per steady-state spin Step, want 0", got)
	}
}

// TestGreedyNextZeroAlloc guards the lookahead: after the first decision
// (which allocates the per-process cache), a full greedy decision — no
// step ran since the last one, so every live process is rescored, each
// against the pending readers of the register it changes — must not
// allocate, and neither may a cached decision that follows the chosen
// process's step (with the step itself, into the reserved trace).
func TestGreedyNextZeroAlloc(t *testing.T) {
	const runs = 50
	s := machine.NewSystem(spinFactory(t, 4))
	s.Reserve(runs + 64)
	g := machine.NewGreedyCost()
	for w := 0; w < 16; w++ { // warm-up: the per-process cache and automaton snapshot buffers exist
		i := g.Next(s)
		if i < 0 {
			t.Fatal("no live process")
		}
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(runs, func() {
		if i := g.Next(s); i < 0 {
			t.Fatal("no live process")
		}
	})
	if got != 0 {
		t.Errorf("%.1f allocs per warm GreedyCost.Next, want 0", got)
	}
	got = testing.AllocsPerRun(runs, func() {
		i := g.Next(s)
		if i < 0 {
			t.Fatal("no live process")
		}
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("%.1f allocs per cached GreedyCost.Next and its Step, want 0", got)
	}
}

// TestRandomNextZeroAlloc extends the PR 2 Random.Next fix into a guard at
// the System level: a scheduling decision over live processes reuses the
// scratch buffer.
func TestRandomNextZeroAlloc(t *testing.T) {
	s := machine.NewSystem(churnFactory(t, 8))
	r := machine.NewRandom(1)
	r.Next(s) // allocate the scratch buffer
	if got := testing.AllocsPerRun(100, func() { r.Next(s) }); got != 0 {
		t.Errorf("%.1f allocs per Random.Next, want 0", got)
	}
}

// TestRMWStepZeroAllocRealAlgo runs the guard over a registry RMW algorithm
// (test-and-set) rather than a synthetic loop, covering the spin-on-RMW
// shape those algorithms execute.
func TestRMWStepZeroAllocRealAlgo(t *testing.T) {
	f, err := rmw.TestAndSet(3)
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSystem(f)
	s.Reserve(512)
	// Let process 0 take the lock; processes 1..2 then spin on TAS failing.
	for _, i := range []int{0, 0, 0} {
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	got := testing.AllocsPerRun(100, func() {
		if _, err := s.Step(1 + step%2); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if got != 0 {
		t.Errorf("%.1f allocs per spinning TAS Step, want 0", got)
	}
}

// TestReserveIsIdempotentAndGrows pins Reserve's contract: reserving less
// than the remaining capacity is a no-op, reserving more grows without
// losing history, and stepping within the reservation never reallocates the
// trace (checked via the Trace slice's backing identity).
func TestReserveIsIdempotentAndGrows(t *testing.T) {
	s := machine.NewSystem(churnFactory(t, 4))
	for i := 0; i < 8; i++ {
		if _, err := s.Step(i % 4); err != nil {
			t.Fatal(err)
		}
	}
	prefix := s.Trace().Clone()
	s.Reserve(1000)
	if got := s.Trace(); !got.Equal(prefix) {
		t.Fatalf("Reserve lost history: %v != %v", got, prefix)
	}
	before := &s.Trace()[0]
	s.Reserve(10) // no-op: capacity already covers it
	for i := 0; i < 1000; i++ {
		if _, err := s.Step(i % 4); err != nil {
			t.Fatal(err)
		}
	}
	if &s.Trace()[0] != before {
		t.Fatal("stepping within a reservation reallocated the trace arena")
	}
	if !s.Trace().Prefix(len(prefix)).Equal(prefix) {
		t.Fatal("arena growth corrupted the recorded prefix")
	}
}
