package adversary_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/runner"
	"repro/internal/store"
)

// BenchmarkSearchWorst measures one full quick-config schedule search —
// the adversary loop every tournament round and every -adversary
// experiment pays per (algorithm, n) cell: seeding with the fixed
// policies, then mutation/restart rounds over the engine's worker pool.
// Single-worker so the number measures the search's work, not the box's
// parallelism; a fresh engine per search, so every search starts cold.
func BenchmarkSearchWorst(b *testing.B) {
	cfg := adversary.Quick()
	cfg.Seed = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.SearchWorst(runner.NewCached(runner.New(1), nil), "peterson", 4, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWorstWarm is the same search through a warmed
// content-addressed store: every candidate is a replay, so this isolates
// the search's own overhead (genome generation, dispatch, fold) plus
// cache lookups from schedule execution. The gap to BenchmarkSearchWorst
// is what the result store saves a fleet per duplicate search.
func BenchmarkSearchWorstWarm(b *testing.B) {
	cfg := adversary.Quick()
	cfg.Seed = 7
	st := store.New(0, nil)
	defer st.Close()
	eng := runner.NewCached(runner.New(1), st)
	if _, err := adversary.SearchWorst(eng, "peterson", 4, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.SearchWorst(eng, "peterson", 4, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
