package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mutex"
	"repro/internal/perm"
)

func mustAlgo(t testing.TB, name string, n int) *mutex.Factory {
	t.Helper()
	f, err := mutex.New(name, n)
	if err != nil {
		t.Fatalf("mutex.New(%s, %d): %v", name, n, err)
	}
	return f
}

// TestPipelineRoundTrip runs the full Construct→Encode→Decode pipeline —
// with every theorem check enabled — for every permutation of small n and
// every register algorithm.
func TestPipelineRoundTrip(t *testing.T) {
	for _, name := range []string{mutex.NameYangAnderson, mutex.NamePeterson, mutex.NameBakery} {
		for n := 1; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				f := mustAlgo(t, name, n)
				perm.ForEach(n, func(pi []int) bool {
					if _, err := core.Run(f, pi); err != nil {
						t.Fatalf("pipeline(pi=%v): %v", pi, err)
					}
					return true
				})
			})
		}
	}
}

// TestRunReportMatchesMeasure: the Report Run costs α_π with, from the
// charges its decoder recorded, equals a fresh replay's cost.Measure of
// α_π, over the permutations E10 samples at quick scale under the
// experiments' default seed.
func TestRunReportMatchesMeasure(t *testing.T) {
	const seed = 20060723 // cmd/experiments -seed default
	for _, name := range []string{mutex.NameYangAnderson, mutex.NameBakery} {
		for _, n := range []int{2, 4, 8} {
			f := mustAlgo(t, name, n)
			for _, pi := range perm.Sample(n, 6, seed+int64(n)*31) {
				p, err := core.Run(f, pi)
				if err != nil {
					t.Fatalf("%s n=%d pi=%v: %v", name, n, pi, err)
				}
				want, err := cost.Measure(f, p.Decoded)
				if err != nil {
					t.Fatal(err)
				}
				if p.Report != want || p.Cost != want.SC {
					t.Fatalf("%s n=%d pi=%v: Run reports %+v (Cost %d), Measure %+v", name, n, pi, p.Report, p.Cost, want)
				}
			}
		}
	}
}

// TestTheorem75Injectivity: over all of S_n, the decoded executions are
// pairwise distinct — the heart of the counting argument.
func TestTheorem75Injectivity(t *testing.T) {
	for _, name := range []string{mutex.NameYangAnderson, mutex.NameBakery} {
		for n := 2; n <= 5; n++ {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				f := mustAlgo(t, name, n)
				stats, err := core.ExhaustiveSweep(f)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("n=%d perms=%d maxCost=%d maxBits=%d log2(n!)=%.1f bits/cost≤%.2f",
					n, stats.Perms, stats.MaxCost, stats.MaxBits, core.InformationBound(n), stats.MaxBitsPerCost)
			})
		}
	}
}

// TestTheorem62BitsPerCostBounded: |E_π| / C(α_π) stays below a constant
// across n — the encoding-efficiency half of the bound.
func TestTheorem62BitsPerCostBounded(t *testing.T) {
	const bound = 8.0 // 3-bit tags + amortized signature bits
	for _, n := range []int{2, 4, 8, 12, 16} {
		f := mustAlgo(t, mutex.NameYangAnderson, n)
		perms := perm.Sample(n, 5, int64(n))
		stats, err := core.Sweep(f, perms)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d maxBits/cost=%.2f", n, stats.MaxBitsPerCost)
		if stats.MaxBitsPerCost > bound {
			t.Errorf("n=%d: bits/cost=%.2f exceeds %.1f (Theorem 6.2 constant blew up)", n, stats.MaxBitsPerCost, bound)
		}
	}
}

// TestRejectsRMWAlgorithms: the pipeline only accepts register algorithms.
func TestRejectsRMWAlgorithms(t *testing.T) {
	// The registry in this package has only register algorithms; the rmw
	// package is exercised in the facade tests. Here we check the sweep
	// guard against oversized exhaustive sweeps instead.
	f := mustAlgo(t, mutex.NameYangAnderson, 9)
	if _, err := core.ExhaustiveSweep(f); err == nil {
		t.Fatal("want refusal for exhaustive sweep at n=9")
	}
}
