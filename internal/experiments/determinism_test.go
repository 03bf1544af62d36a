package experiments_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/runner"
)

// TestParallelTablesByteIdentical is the engine's acceptance check: every
// experiment, run at -parallel 1 (the sequential path), 4, and 8, must
// produce byte-identical Table.Format() output. Quick scale keeps this
// affordable in every test mode.
func TestParallelTablesByteIdentical(t *testing.T) {
	workerCounts := []int{1, 4, 8}
	for _, e := range experiments.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var want string
			for _, w := range workerCounts {
				cfg := experiments.Config{Quick: true, Seed: 20060723, Engine: runner.NewCached(runner.New(w), nil)}
				tbl, err := e.Run(cfg)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", e.ID, w, err)
				}
				got := tbl.Format()
				if w == workerCounts[0] {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s: workers=%d output differs from workers=%d:\n--- workers=%d\n%s\n--- workers=%d\n%s",
						e.ID, w, workerCounts[0], workerCounts[0], want, w, got)
				}
			}
		})
	}
}

// TestParallelSweepStatsIdentical checks the core layer directly: SweepCached
// and ExhaustiveSweepCached aggregate to identical SweepStats at every worker
// count for fixed seeds.
func TestParallelSweepStatsIdentical(t *testing.T) {
	perms := perm.Sample(5, 40, 20060723)

	base, err := core.SweepCached(runner.NewCached(runner.New(1), nil), mutex.NameYangAnderson, 5, perms)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		got, err := core.SweepCached(runner.NewCached(runner.New(w), nil), mutex.NameYangAnderson, 5, perms)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got != base {
			t.Errorf("SweepCached workers=%d stats %+v differ from sequential %+v", w, got, base)
		}
	}

	exBase, err := core.ExhaustiveSweepCached(runner.NewCached(runner.New(1), nil), mutex.NameYangAnderson, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		got, err := core.ExhaustiveSweepCached(runner.NewCached(runner.New(w), nil), mutex.NameYangAnderson, 5)
		if err != nil {
			t.Fatalf("exhaustive workers=%d: %v", w, err)
		}
		if got != exBase {
			t.Errorf("ExhaustiveSweepCached workers=%d stats %+v differ from sequential %+v", w, got, exBase)
		}
	}
}
