package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/store"
)

// TestWarmCacheRerunSimulatesNothing is the incremental-re-run acceptance
// check: with a shared result store, a second run of the full quick suite
// must produce byte-identical tables while executing zero simulations —
// every keyed unit (canonical jobs, sweep permutations, linearization
// trials, encoding ablations, schedule-search candidates) hits the store.
// Worker counts differ across the two runs to prove cache replay is as
// schedule-independent as execution.
func TestWarmCacheRerunSimulatesNothing(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	runAll := func(workers int) map[string]string {
		t.Helper()
		out := map[string]string{}
		cfg := experiments.Config{Quick: true, Seed: 20060723, Engine: runner.NewCached(runner.New(workers), st)}
		for _, e := range experiments.All() {
			tbl, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out[e.ID] = tbl.Format()
		}
		return out
	}

	cold := runAll(4)
	s := st.Stats()
	if s.Misses == 0 || s.Puts == 0 {
		t.Fatalf("cold run keyed nothing: %+v", s)
	}
	missesAfterCold := s.Misses

	warm := runAll(2)
	for id, want := range cold {
		if warm[id] != want {
			t.Errorf("%s: warm table differs from cold:\n--- cold\n%s\n--- warm\n%s", id, want, warm[id])
		}
	}
	if got := st.Stats().Misses; got != missesAfterCold {
		t.Errorf("warm re-run executed %d simulations (miss count %d -> %d), want zero",
			got-missesAfterCold, missesAfterCold, got)
	}
}
