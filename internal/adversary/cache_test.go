package adversary_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/store"
)

// TestSearchWorstSurvivesStallingSeed is the regression test for the
// truncated-candidate scoring fix: a seeded schedule that stalls mid-run
// (solo order [0] abandons the system once process 0 halts, leaving n-1
// live processes) must be discarded — counted, never scored, and never
// aborting the whole search batch the way a hard error would.
func TestSearchWorstSurvivesStallingSeed(t *testing.T) {
	cfg := adversary.Quick()
	cfg.Seed = 11
	base, err := adversary.SearchWorst(runner.NewCached(runner.New(4), nil), "peterson", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Seeds = []machine.Spec{machine.SoloSpec([]int{0})}
	got, err := adversary.SearchWorst(runner.NewCached(runner.New(4), nil), "peterson", 4, cfg)
	if err != nil {
		t.Fatalf("a stalling candidate aborted the search: %v", err)
	}
	if got.Discarded != base.Discarded+1 || got.Evaluated != base.Evaluated+1 {
		t.Fatalf("stalling seed not discarded: evaluated %d->%d, discarded %d->%d",
			base.Evaluated, got.Evaluated, base.Discarded, got.Discarded)
	}
	// The discard must not perturb the search outcome: same winner, same
	// cost, same fixed-policy table.
	if got.Origin != base.Origin || got.Report != base.Report || !reflect.DeepEqual(got.Fixed, base.Fixed) {
		t.Fatalf("discarded seed changed the outcome:\n%+v\nvs\n%+v", got, base)
	}
	fixed, ok := got.FixedBest()
	if !ok || got.Report.SC < fixed.Report.SC {
		t.Fatalf("floor violated after discard: found %d vs fixed %d (ok=%v)", got.Report.SC, fixed.Report.SC, ok)
	}
}

// TestFixedBestTieBreakIsSubmissionOrder pins the documented tie-break:
// equal SC costs resolve to the earliest submitted policy.
func TestFixedBestTieBreakIsSubmissionOrder(t *testing.T) {
	f := adversary.Found{Fixed: []adversary.PolicyResult{
		{Name: "skipped", Report: cost.Report{SC: 99}, Canonical: false},
		{Name: "first", Report: cost.Report{SC: 10}, Canonical: true},
		{Name: "second", Report: cost.Report{SC: 10}, Canonical: true},
		{Name: "weaker", Report: cost.Report{SC: 9}, Canonical: true},
	}}
	best, ok := f.FixedBest()
	if !ok || best.Name != "first" {
		t.Fatalf("tie must resolve to the first submitted policy, got %q (ok=%v)", best.Name, ok)
	}
	if _, ok := (adversary.Found{}).FixedBest(); ok {
		t.Fatal("empty Fixed table must report ok=false")
	}
}

// TestDuplicateSeedGenomesAreFree pins the incumbent tie-break from the
// other side: re-submitting an identical genome can never steal the win
// (strictly-greater keeps the earlier submission), so the search outcome is
// identical with and without the duplicate.
func TestDuplicateSeedGenomesAreFree(t *testing.T) {
	spec := machine.PrefixGreedySpec([]int{0, 1, 2, 3, 3, 2, 1, 0})
	cfg := adversary.Quick()
	cfg.Seed = 3
	cfg.Seeds = []machine.Spec{spec}
	once, err := adversary.SearchWorst(runner.NewCached(runner.New(2), nil), "yang-anderson", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seeds = []machine.Spec{spec, spec}
	twice, err := adversary.SearchWorst(runner.NewCached(runner.New(2), nil), "yang-anderson", 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if twice.Evaluated != once.Evaluated+1 {
		t.Fatalf("duplicate seed not evaluated: %d vs %d", twice.Evaluated, once.Evaluated)
	}
	if twice.Origin != once.Origin || twice.Report != once.Report || !reflect.DeepEqual(twice.Spec, once.Spec) {
		t.Fatalf("duplicate genome changed the outcome:\n%+v\nvs\n%+v", twice, once)
	}
}

// TestSearchWorstCachedIsIdenticalAndMemoized: the whole search result must
// be byte-identical across (a) a plain engine, (b) a cold cached engine and
// (c) a warm cached engine at workers 1/4/8 — and the warm searches must
// re-simulate nothing at all.
func TestSearchWorstCachedIsIdenticalAndMemoized(t *testing.T) {
	cfg := adversary.Quick()
	cfg.Seed = 20060723
	want, err := adversary.SearchWorst(runner.NewCached(runner.New(2), nil), "yang-anderson", 5, cfg)
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cold, err := adversary.SearchWorst(runner.NewCached(runner.New(2), st), "yang-anderson", 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold cached search differs from plain search:\n%+v\nvs\n%+v", cold, want)
	}
	missesAfterCold := st.Stats().Misses

	for _, w := range []int{1, 4, 8} {
		warm, err := adversary.SearchWorst(runner.NewCached(runner.New(w), st), "yang-anderson", 5, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(warm, want) {
			t.Fatalf("warm cached search (workers=%d) differs from plain search:\n%+v\nvs\n%+v", w, warm, want)
		}
	}
	if got := st.Stats().Misses; got != missesAfterCold {
		t.Fatalf("warm searches re-simulated %d candidates, want zero", got-missesAfterCold)
	}
}
