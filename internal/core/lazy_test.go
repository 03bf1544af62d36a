package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/runner"
	"repro/internal/store"
)

// countedAlgo is yang-anderson under a test-only name, registered with a
// wrapper that counts how many factories each n builds.
const countedAlgo = "counted-yang-anderson"

var builds struct {
	mu  sync.Mutex
	byN map[int]int
}

func init() {
	mutex.Register(countedAlgo, func(n int) (*mutex.Factory, error) {
		builds.mu.Lock()
		builds.byN[n]++
		builds.mu.Unlock()
		return mutex.YangAnderson(n)
	})
	builds.byN = map[int]int{}
}

// countBuilds runs fn and returns how many counted factories it built per n.
func countBuilds(fn func()) map[int]int {
	builds.mu.Lock()
	builds.byN = map[int]int{}
	builds.mu.Unlock()
	fn()
	builds.mu.Lock()
	defer builds.mu.Unlock()
	return builds.byN
}

// TestSweepsBuildFactoryLazily: a cold sweep builds its factory once,
// however many of its units execute and on however many workers, and the
// same sweep against the warm store builds none and folds the same stats.
// The stats are those of a sweep over a factory built up front.
func TestSweepsBuildFactoryLazily(t *testing.T) {
	sample := perm.Sample(5, 12, 7)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := store.New(0, nil)
			defer st.Close()
			eng := runner.NewCached(runner.New(workers), st)
			sweeps := func() (sampled, exhaustive core.SweepStats) {
				var err error
				if sampled, err = core.SweepCached(eng, countedAlgo, 5, sample); err != nil {
					t.Fatal(err)
				}
				if exhaustive, err = core.ExhaustiveSweepCached(eng, countedAlgo, 4); err != nil {
					t.Fatal(err)
				}
				return sampled, exhaustive
			}
			var coldS, coldX, warmS, warmX core.SweepStats
			if byN := countBuilds(func() { coldS, coldX = sweeps() }); len(byN) != 2 || byN[5] != 1 || byN[4] != 1 {
				t.Errorf("cold sweeps built %v, want one factory at n=5 and one at n=4", byN)
			}
			if byN := countBuilds(func() { warmS, warmX = sweeps() }); len(byN) != 0 {
				t.Errorf("warm sweeps built %v, want none", byN)
			}
			if warmS != coldS || warmX != coldX {
				t.Errorf("warm stats %+v, %+v differ from cold %+v, %+v", warmS, warmX, coldS, coldX)
			}
			if want, err := core.Sweep(mustAlgo(t, mutex.NameYangAnderson, 5), sample); err != nil || want != coldS {
				t.Errorf("sweep over a built factory: %+v, %v; lazy sweep %+v", want, err, coldS)
			}
		})
	}
	eng := runner.NewCached(runner.New(1), nil)
	if _, err := core.SweepCached(eng, "no-such-lock", 3, perm.Sample(3, 2, 1)); err == nil {
		t.Error("SweepCached of an unknown algorithm succeeded")
	}
	if _, err := core.ExhaustiveSweepCached(eng, "no-such-lock", 3); err == nil {
		t.Error("ExhaustiveSweepCached of an unknown algorithm succeeded")
	}
}
