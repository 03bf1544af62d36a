package adversary_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/runner"
)

// TestSearchWorstDeterministicAcrossWorkers is the acceptance check from
// the runner seam: the whole search result — winner, fixed-policy table,
// evaluation counts — must be byte-identical at workers 1 (the sequential
// path), 4, and 8.
func TestSearchWorstDeterministicAcrossWorkers(t *testing.T) {
	cfg := adversary.Quick()
	cfg.Seed = 20060723
	var want adversary.Found
	for wi, w := range []int{1, 4, 8} {
		got, err := adversary.SearchWorst(runner.NewCached(runner.New(w), nil), "yang-anderson", 6, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if wi == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d result differs from sequential:\n%+v\nvs\n%+v", w, got, want)
		}
	}
}

// TestSearchWorstBeatsFixedPolicies checks the search's floor: because the
// fixed policies seed the candidate pool, the found-worst execution costs
// at least as much as the best fixed policy at equal n — for every classic
// algorithm.
func TestSearchWorstBeatsFixedPolicies(t *testing.T) {
	eng := runner.NewCached(runner.New(0), nil)
	cfg := adversary.Quick()
	cfg.Seed = 1
	for _, algo := range []string{"yang-anderson", "bakery", "peterson", "tas", "mcs"} {
		found, err := adversary.SearchWorst(eng, algo, 5, cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		fixed, ok := found.FixedBest()
		if !ok {
			t.Fatalf("%s: no fixed policy completed", algo)
		}
		if found.Report.SC < fixed.Report.SC {
			t.Errorf("%s: found-worst SC=%d below best fixed policy %s SC=%d",
				algo, found.Report.SC, fixed.Name, fixed.Report.SC)
		}
		if found.Evaluated == 0 || len(found.Fixed) == 0 {
			t.Errorf("%s: empty search bookkeeping: %+v", algo, found)
		}
	}
}

// TestSearchWorstSpecReplays checks reproducibility of the winner: running
// the returned Spec afresh reproduces the reported cost exactly.
func TestSearchWorstSpecReplays(t *testing.T) {
	cfg := adversary.Quick()
	cfg.Seed = 7
	found, err := adversary.SearchWorst(runner.NewCached(runner.New(0), nil), "bakery", 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := runner.NewFactory(found.Algo, found.N)
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := runner.ExecuteScheduleTraced(f, runner.ScheduleJob{
		Algo: found.Algo, N: found.N, Sched: found.Spec, Horizon: cfg.Horizon,
	})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.Canonical {
		t.Fatal("winning spec no longer completes canonically")
	}
	if r.Report != found.Report {
		t.Fatalf("replayed report %+v differs from found %+v", r.Report, found.Report)
	}
}
