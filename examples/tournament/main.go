// Tournament: compare the canonical-execution cost of every algorithm in
// the repository across n, under two schedulers — the positioning picture
// from the paper's Section 2: bakery Θ(n²), tournaments O(n log n), and
// the RMW-based MCS lock O(n), the gap registers provably cannot close.
// The closing section turns the adversary from a fixed policy into a
// search: internal/adversary hunts for schedules costlier than any
// hand-written one (the full grid lives in cmd/tournament).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/adversary"
	"repro/internal/runner"
)

func main() {
	algos := []string{
		repro.AlgoMCS, repro.AlgoTAS,
		repro.AlgoYangAnderson, repro.AlgoPeterson, repro.AlgoBakery,
	}
	ns := []int{4, 8, 16, 32, 64}

	for _, schedName := range []string{"progress-first", "round-robin"} {
		fmt.Printf("=== scheduler: %s ===\n", schedName)
		fmt.Printf("%-14s", "algo \\ n")
		for _, n := range ns {
			fmt.Printf("%10d", n)
		}
		fmt.Println("   (SC cost; ratio to n·lg n)")
		for _, name := range algos {
			fmt.Printf("%-14s", name)
			for _, n := range ns {
				algo, err := repro.NewAlgorithm(name, n)
				if err != nil {
					log.Fatal(err)
				}
				sched, err := repro.NewSchedulerByName(schedName, n, 42)
				if err != nil {
					log.Fatal(err)
				}
				exec, err := repro.RunCanonical(algo, sched)
				if err != nil {
					log.Fatal(err)
				}
				rep, err := repro.MeasureCost(algo, exec)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%10d", rep.SC)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Println("reading the table: bakery's column ratios grow linearly (quadratic total),")
	fmt.Println("yang-anderson's stay near-constant (n log n), mcs's shrink (linear).")

	fmt.Println("\n=== adversary search: worse than any fixed policy ===")
	eng := runner.NewCached(runner.New(0), nil)
	for _, name := range []string{repro.AlgoYangAnderson, repro.AlgoBakery} {
		found, err := adversary.SearchWorst(eng, name, 8, adversary.Quick())
		if err != nil {
			log.Fatal(err)
		}
		fixed, ok := found.FixedBest()
		if !ok {
			log.Fatalf("%s: no fixed policy completed a canonical run", name)
		}
		fmt.Printf("%-14s n=8  best fixed policy %-14s SC=%-5d  searched worst SC=%-5d (%s, %d candidates)\n",
			name, fixed.Name, fixed.Report.SC, found.Report.SC, found.Origin, found.Evaluated)
	}
	fmt.Println("the searched schedule replays exactly: hand found.Spec to a fresh run to reproduce it.")
}
