// Benchmarks regenerating experiments E1–E9 one table each
// (BenchmarkE1…E9; E10–E13 run only inside BenchmarkExperimentsWorkers,
// which runs the whole quick suite) plus micro-benchmarks of the pipeline
// stages. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report the headline quantity of their table as
// a custom metric alongside timing, so a bench run reproduces the paper's
// shape claims end to end.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/perm"
	"repro/internal/runner"
)

// benchExperiment runs one experiment per iteration and fails the bench if
// its shape check fails.
func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	cfg := experiments.Config{Quick: true, Seed: 20060723}
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !tbl.Pass {
			b.Fatalf("%s failed:\n%s", tbl.ID, tbl.Format())
		}
	}
}

// BenchmarkE1LowerBound — Theorem 7.5: max C(α_π) = Ω(n log n).
func BenchmarkE1LowerBound(b *testing.B) { benchExperiment(b, experiments.E1LowerBound) }

// BenchmarkE2YangAndersonCost — tightness: O(n log n) canonical SC cost.
func BenchmarkE2YangAndersonCost(b *testing.B) {
	benchExperiment(b, experiments.E2YangAndersonTightness)
}

// BenchmarkE3EntryOrder — Theorem 5.5: critical sections in π order.
func BenchmarkE3EntryOrder(b *testing.B) { benchExperiment(b, experiments.E3EntryOrder) }

// BenchmarkE4EncodingLength — Theorem 6.2: |E_π| = O(C).
func BenchmarkE4EncodingLength(b *testing.B) { benchExperiment(b, experiments.E4EncodingLength) }

// BenchmarkE5DecodeRoundTrip — Theorem 7.4 + injectivity.
func BenchmarkE5DecodeRoundTrip(b *testing.B) { benchExperiment(b, experiments.E5DecodeInjectivity) }

// BenchmarkE6LinearizationCost — Lemma 6.1: cost invariance.
func BenchmarkE6LinearizationCost(b *testing.B) {
	benchExperiment(b, experiments.E6LinearizationCost)
}

// BenchmarkE7AlgorithmComparison — §2 positioning: bakery/tournament/MCS.
func BenchmarkE7AlgorithmComparison(b *testing.B) {
	benchExperiment(b, experiments.E7AlgorithmComparison)
}

// BenchmarkE8BusywaitFree — Alur–Taubenfeld contrast: unbounded accesses,
// bounded SC.
func BenchmarkE8BusywaitFree(b *testing.B) { benchExperiment(b, experiments.E8BusywaitFree) }

// BenchmarkE9InformationBound — the log₂(n!) floor.
func BenchmarkE9InformationBound(b *testing.B) {
	benchExperiment(b, experiments.E9InformationBound)
}

// --- Micro-benchmarks of the pipeline stages and the simulator ---

func benchAlgos() []string {
	return []string{repro.AlgoYangAnderson, repro.AlgoBakery}
}

// BenchmarkSimulateCanonical measures the simulator: one canonical
// execution per iteration, reporting SC cost per n.
func BenchmarkSimulateCanonical(b *testing.B) {
	for _, name := range benchAlgos() {
		for _, n := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				f, err := repro.NewAlgorithm(name, n)
				if err != nil {
					b.Fatal(err)
				}
				var sc int
				for i := 0; i < b.N; i++ {
					exec, err := machine.RunCanonical(f, machine.NewRoundRobin(), 0)
					if err != nil {
						b.Fatal(err)
					}
					rep, err := repro.MeasureCost(f, exec)
					if err != nil {
						b.Fatal(err)
					}
					sc = rep.SC
				}
				b.ReportMetric(float64(sc), "SC-cost")
				b.ReportMetric(float64(sc)/perm.NLogN(n), "SC/(n·lgn)")
			})
		}
	}
}

// BenchmarkConstruct measures the construction step alone.
func BenchmarkConstruct(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f, err := repro.NewAlgorithm(repro.AlgoYangAnderson, n)
			if err != nil {
				b.Fatal(err)
			}
			pi := perm.Sample(n, 1, 99)[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := construct.Construct(f, pi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures the decoding step alone: one Decode of a
// constructed encoding per iteration, the encoding built before the timer
// starts.
func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f, err := repro.NewAlgorithm(repro.AlgoYangAnderson, n)
			if err != nil {
				b.Fatal(err)
			}
			res, err := construct.Construct(f, perm.Sample(n, 1, 99)[0])
			if err != nil {
				b.Fatal(err)
			}
			enc, err := encode.Encode(res.Set)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := decode.Decode(f, enc.Bits, enc.BitLen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeDecode measures encode+decode round-trips, reporting the
// encoding size.
func BenchmarkEncodeDecode(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f, err := repro.NewAlgorithm(repro.AlgoYangAnderson, n)
			if err != nil {
				b.Fatal(err)
			}
			pi := perm.Sample(n, 1, 7)[0]
			res, err := construct.Construct(f, pi)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var bits int
			for i := 0; i < b.N; i++ {
				enc, err := encode.Encode(res.Set)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decode.Decode(f, enc.Bits, enc.BitLen); err != nil {
					b.Fatal(err)
				}
				bits = enc.BitLen
			}
			b.ReportMetric(float64(bits), "bits")
		})
	}
}

// BenchmarkSweepWorkers compares sequential and parallel sweep throughput
// on the runner engine: the same fixed permutation sample swept at
// workers=1 (the sequential path) and at GOMAXPROCS. The outputs are
// byte-identical (see internal/experiments determinism tests); only the
// wall time differs, by roughly the core count on an unloaded machine.
// Each sweep runs on a fresh engine, so none is served by the one before.
func BenchmarkSweepWorkers(b *testing.B) {
	perms := perm.Sample(8, 24, 20060723)
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts = counts[:1] // single-core machine: nothing to compare against
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var maxCost int
			for i := 0; i < b.N; i++ {
				stats, err := core.SweepCached(runner.NewCached(runner.New(w), nil), repro.AlgoYangAnderson, 8, perms)
				if err != nil {
					b.Fatal(err)
				}
				maxCost = stats.MaxCost
			}
			b.ReportMetric(float64(maxCost), "maxSC")
		})
	}
}

// BenchmarkExperimentsWorkers runs the full quick-scale experiment suite
// at workers=1 vs GOMAXPROCS — the before/after of parallelizing E1–E13.
// Each suite runs on one fresh engine, as `experiments -quick` without a
// store flag does: a unit an earlier experiment of the same suite executed
// is a hit, and nothing carries over to the next suite.
func BenchmarkExperimentsWorkers(b *testing.B) {
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts = counts[:1]
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.Config{Quick: true, Seed: 20060723, Engine: runner.NewCached(runner.New(w), nil)}
				for _, e := range experiments.All() {
					tbl, err := e.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if !tbl.Pass {
						b.Fatalf("%s failed:\n%s", tbl.ID, tbl.Format())
					}
				}
			}
		})
	}
}

// BenchmarkFullPipeline measures Prove end to end with all verification.
func BenchmarkFullPipeline(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f, err := repro.NewAlgorithm(repro.AlgoYangAnderson, n)
			if err != nil {
				b.Fatal(err)
			}
			pi := perm.Sample(n, 1, 3)[0]
			var cost int
			for i := 0; i < b.N; i++ {
				p, err := repro.Prove(f, pi)
				if err != nil {
					b.Fatal(err)
				}
				cost = p.Cost
			}
			b.ReportMetric(float64(cost), "SC-cost")
		})
	}
}
