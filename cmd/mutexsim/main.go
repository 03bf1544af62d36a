// Command mutexsim runs a mutual exclusion algorithm on the deterministic
// shared-memory simulator under a chosen scheduler and reports the cost of
// the canonical execution under every cost model, plus the verification
// verdicts.
//
// Usage:
//
//	mutexsim -algo bakery -n 16 -sched round-robin
//	mutexsim -algo yang-anderson -n 64 -sched random -seed 7
//	mutexsim -algo naive -n 2 -sched round-robin      # watch the checker catch it
//	mutexsim -algo mcs -n 8 -json                     # the canonical machine-readable
//	                                                  # unit result (one JSON line —
//	                                                  # byte-identical to an experimentd
//	                                                  # response for the same unit)
//
// It is built on the session core (internal/session), so the canonical
// store and profiling flags work here too: `-cache DIR` / `-store URL`
// memoize the unit in -json mode (a warm re-run simulates nothing),
// -capture persists the executed step trace for cmd/observe, and
// -cpuprofile/-memprofile/-trace profile the run. -shard is refused:
// every invocation prints its data output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mutexsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mutexsim", flag.ContinueOnError)
	fs.SetOutput(os.Stderr) // diagnostics and usage must not corrupt the data stream on w
	var (
		algoName  = fs.String("algo", repro.AlgoYangAnderson, "algorithm (one of: "+strings.Join(repro.Algorithms(), ", ")+")")
		n         = fs.Int("n", 8, "number of processes")
		schedName = fs.String("sched", "round-robin", "scheduler: round-robin, random, solo, progress-first, hold-cs, greedy-cost")
		seed      = fs.Int64("seed", 1, "seed for the random scheduler")
		rawSteps  = fs.Bool("steps", false, "print the raw step sequence")
		timeline  = fs.Bool("timeline", false, "print the per-process timeline (glyphs: T/E/X/Q crit, w write, r charged read, · free read)")
		summary   = fs.Bool("summary", false, "print per-process cost summary")
		asJSON    = fs.Bool("json", false, "emit the canonical unit result as one JSON line (the cached, servable form; experimentd returns the same bytes)")
	)
	sf := session.FlagConfig(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	s, err := session.Open(sf.Config("mutexsim"))
	if err != nil {
		return err
	}
	defer s.Close()
	if s.Priming() {
		// The canonical validation accepted the shard spec; the refusal here
		// is this binary's own: a prime pass prints no data output, and a
		// run that printed nothing would look like a run that failed.
		s.Close()
		return fmt.Errorf("-shard is a batch priming mode; mutexsim always prints its run")
	}

	u := session.Unit{Algo: *algoName, N: *n, Sched: *schedName, Seed: *seed}
	if *asJSON {
		// The servable path: the unit goes through the session — cached,
		// coalesced, capturable — and the result is the canonical wire form.
		res, err := s.RunUnit(u)
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(res)
	}

	// The human-readable views need the execution itself (entry order,
	// verification, timeline), which the result store does not carry, so
	// this path always executes — through the same Job value the cached
	// path would key.
	j, err := u.Job()
	if err != nil {
		return err
	}
	f, err := runner.NewFactory(j.Algo, j.N)
	if err != nil {
		return err
	}
	sched, err := j.Sched.New()
	if err != nil {
		return err
	}
	res, exec, changed := runner.ExecuteTraced(j)
	if res.Err != nil {
		return res.Err
	}
	rep := res.Report
	fmt.Fprintf(w, "algorithm  %s\n", f.Name())
	fmt.Fprintf(w, "scheduler  %s\n", sched.Name())
	fmt.Fprintf(w, "cost       %s\n", rep)
	fmt.Fprintf(w, "           SC/(n·lg n) = %.2f   SC/n² = %.2f\n",
		float64(rep.SC)/repro.NLogN(*n), float64(rep.SC)/float64(*n**n))
	fmt.Fprintf(w, "entries    %v\n", exec.EntryOrder())
	if err := repro.VerifyMutex(f, exec); err != nil {
		fmt.Fprintf(w, "verify     FAIL: %v\n", err)
	} else {
		fmt.Fprintf(w, "verify     ok (replayable, well-formed, mutual exclusion, canonical)\n")
	}
	if *rawSteps {
		fmt.Fprintf(w, "\ntrace (%d steps):\n%s\n", len(exec), exec)
	}
	if *timeline {
		fmt.Fprintf(w, "\n%s", trace.Timeline(f.N(), exec, changed, trace.Options{ShowFree: true}))
	}
	if *summary {
		fmt.Fprintf(w, "\n%s", trace.Summary(f.N(), exec, changed))
	}
	return nil
}
