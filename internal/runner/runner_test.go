package runner_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/runner"
)

// TestMapOrderedFoldsInOrder checks the engine's core guarantee: whatever
// the workers do, the fold observes indices 0,1,2,… in order, at every
// worker count.
func TestMapOrderedFoldsInOrder(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 2, 4, 8, 33} {
		eng := runner.New(workers)
		var seen []int
		err := runner.MapOrdered(eng, n, func(i int) (int, error) {
			return i * i, nil
		}, func(i int, v int) error {
			if v != i*i {
				t.Fatalf("workers=%d: fold(%d) got %d, want %d", workers, i, v, i*i)
			}
			seen = append(seen, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: folded %d of %d results", workers, len(seen), n)
		}
		for i, got := range seen {
			if got != i {
				t.Fatalf("workers=%d: fold order broken at position %d: got index %d", workers, i, got)
			}
		}
	}
}

// TestMapOrderedFirstErrorWins checks sequential error semantics: the
// returned error is the one at the lowest failing index, and no result at
// or beyond it is folded — regardless of which worker finished first.
func TestMapOrderedFirstErrorWins(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		eng := runner.New(workers)
		folded := 0
		err := runner.MapOrdered(eng, 50, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("job %d: %w", i, wantErr)
			}
			return i, nil
		}, func(i int, v int) error {
			folded++
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want wrapped %v", workers, err, wantErr)
		}
		if got, want := err.Error(), "job 7: boom"; got != want {
			t.Fatalf("workers=%d: err = %q, want the lowest-index failure %q", workers, got, want)
		}
		if folded != 7 {
			t.Fatalf("workers=%d: folded %d results before the error, want 7", workers, folded)
		}
	}
}

// TestMapOrderedFoldErrorStops checks that an error returned by the fold
// itself stops the batch with that error.
func TestMapOrderedFoldErrorStops(t *testing.T) {
	wantErr := errors.New("fold says no")
	for _, workers := range []int{1, 8} {
		err := runner.MapOrdered(runner.New(workers), 20, func(i int) (int, error) {
			return i, nil
		}, func(i int, v int) error {
			if i == 3 {
				return wantErr
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, wantErr)
		}
	}
}

// TestNestedMapOrderedRespectsWorkerBound nests MapOrdered calls on one
// engine — the shape every experiment uses (rows fanning out over
// permutations) — and checks three things: it completes (caller-runs makes
// saturation degrade to sequential instead of deadlocking), results are
// correct, and the number of simultaneously executing jobs never exceeds
// the worker bound plus the one slotless top-level caller.
func TestNestedMapOrderedRespectsWorkerBound(t *testing.T) {
	const workers = 3
	eng := runner.New(workers)
	var inFlight, peak atomic.Int64
	body := func() {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}
	const outer, inner = 6, 8
	sums := make([]int, outer)
	err := runner.MapOrdered(eng, outer, func(o int) (int, error) {
		sum := 0
		err := runner.MapOrdered(eng, inner, func(i int) (int, error) {
			body()
			return o*inner + i, nil
		}, func(_ int, v int) error {
			sum += v
			return nil
		})
		return sum, err
	}, func(o int, sum int) error {
		sums[o] = sum
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for o, sum := range sums {
		want := 0
		for i := 0; i < inner; i++ {
			want += o*inner + i
		}
		if sum != want {
			t.Errorf("outer %d: sum %d, want %d", o, sum, want)
		}
	}
	if got := peak.Load(); got > workers+1 {
		t.Errorf("peak concurrent jobs %d exceeds worker bound %d (+1 for the caller)", got, workers)
	}
}

// TestEngineDefaults checks worker-bound resolution.
func TestEngineDefaults(t *testing.T) {
	if w := runner.New(0).Workers(); w < 1 {
		t.Fatalf("New(0).Workers() = %d, want >= 1", w)
	}
	if w := runner.New(3).Workers(); w != 3 {
		t.Fatalf("New(3).Workers() = %d, want 3", w)
	}
}

// TestJobResultsDeterministic runs the same canonical-execution jobs at
// several worker counts and requires identical results in identical order:
// the parallel engine must be invisible in the output.
func TestJobResultsDeterministic(t *testing.T) {
	var jobs []runner.Job
	for _, algoName := range []string{"yang-anderson", "bakery", "mcs"} {
		for _, n := range []int{2, 4, 8} {
			jobs = append(jobs, runner.Job{Algo: algoName, N: n, Sched: machine.RandomSpec(42 + int64(n))})
		}
	}
	collect := func(workers int) []string {
		var out []string
		err := runner.NewCached(runner.New(workers), nil).Run(jobs, func(r runner.Result) error {
			if r.Err != nil {
				return r.Err
			}
			out = append(out, fmt.Sprintf("%s n=%d sc=%d cc=%d steps=%d",
				r.Job.Algo, r.Job.N, r.Report.SC, r.Report.CCRMR, r.Report.Steps))
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	want := collect(1)
	for _, workers := range []int{4, 8} {
		got := collect(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMixSeedStableAndDistinct pins MixSeed's determinism and checks that
// neighbouring coordinates get distinct seeds (jobs must not share rng
// streams by accident).
func TestMixSeedStableAndDistinct(t *testing.T) {
	if runner.MixSeed(1, 2, 3) != runner.MixSeed(1, 2, 3) {
		t.Fatal("MixSeed is not deterministic")
	}
	seen := map[int64]bool{}
	for row := int64(0); row < 50; row++ {
		for col := int64(0); col < 50; col++ {
			s := runner.MixSeed(20060723, row, col)
			if seen[s] {
				t.Fatalf("MixSeed collision at (%d,%d)", row, col)
			}
			seen[s] = true
		}
	}
	if runner.MixSeed(7, 0) == runner.MixSeed(7, 1) {
		t.Fatal("adjacent coordinates produced equal seeds")
	}
}
