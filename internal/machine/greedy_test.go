package machine_test

import (
	"errors"
	"testing"

	"repro/internal/machine"
	"repro/internal/mutex"
)

func TestGreedyCostCompletesCanonically(t *testing.T) {
	for _, name := range []string{"yang-anderson", "bakery", "peterson"} {
		f, err := mutex.New(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := machine.RunCanonical(f, machine.NewGreedyCost(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(exec.EntryOrder()); got != 5 {
			t.Fatalf("%s: %d entries, want 5", name, got)
		}
	}
}

func TestGreedyCostIsDeterministic(t *testing.T) {
	f, err := mutex.YangAnderson(6)
	if err != nil {
		t.Fatal(err)
	}
	a, err := machine.RunCanonical(f, machine.NewGreedyCost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.RunCanonical(f, machine.NewGreedyCost(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("two greedy-cost runs diverged")
	}
}

func TestPrefixGreedyFollowsPrefixThenCompletes(t *testing.T) {
	f, err := mutex.Bakery(4)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []int{3, 3, 0, 1, 2, 0}
	s := machine.NewSystem(f)
	exec, err := machine.Run(s, machine.NewPrefixGreedy(prefix), machine.DefaultHorizon(4))
	if err != nil {
		t.Fatal(err)
	}
	if !s.AllHalted() {
		t.Fatal("prefix-greedy did not complete")
	}
	// No process halts within the first len(prefix) steps of a bakery run,
	// so the prefix must appear verbatim at the head of the schedule.
	for i, want := range prefix {
		if exec[i].Proc != want {
			t.Fatalf("decision %d scheduled process %d, want %d", i, exec[i].Proc, want)
		}
	}
}

func TestPrefixGreedySkipsHaltedEntries(t *testing.T) {
	f, err := mutex.YangAnderson(3)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range and (eventually) halted entries must be skipped, not
	// scheduled; the tail completes the run.
	prefix := []int{-1, 7, 0, 0, 0, 1}
	if _, err := machine.RunCanonical(f, machine.NewPrefixGreedy(prefix), 0); err != nil {
		t.Fatal(err)
	}
}

// stallAt is a test scheduler that gives up after k decisions.
type stallAt struct {
	k    int
	next int
}

func (s *stallAt) Name() string { return "stall-at" }
func (s *stallAt) Next(sys *machine.System) int {
	if s.next >= s.k {
		return -1
	}
	n := sys.N()
	for i := 0; i < n; i++ {
		p := (s.next + i) % n
		if !sys.Halted(p) {
			s.next++
			return p
		}
	}
	return -1
}

func TestRunReturnsErrStalled(t *testing.T) {
	f, err := mutex.Bakery(3)
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSystem(f)
	trace, err := machine.Run(s, &stallAt{k: 5}, 1000)
	var st machine.ErrStalled
	if !errors.As(err, &st) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	if st.Steps != 5 || len(trace) != 5 {
		t.Fatalf("stall at %d steps (trace %d), want 5", st.Steps, len(trace))
	}
	if st.Live != 3 {
		t.Fatalf("stall with %d live processes, want 3", st.Live)
	}
	if st.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestRandomNextSteadyStateAllocFree(t *testing.T) {
	f, err := mutex.YangAnderson(16)
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSystem(f)
	sched := machine.NewRandom(7)
	sched.Next(s) // warm the scratch buffer
	allocs := testing.AllocsPerRun(200, func() {
		if sched.Next(s) < 0 {
			t.Fatal("no live process")
		}
	})
	if allocs != 0 {
		t.Fatalf("Random.Next allocates %.1f objects per decision in steady state, want 0", allocs)
	}
}
