// Command experiments regenerates every experiment table in EXPERIMENTS.md
// (E1–E13): the machine-checked reproductions of the paper's theorems,
// lemmas, and positioning claims.
//
// Usage:
//
//	experiments                 # full scale, all experiments, GOMAXPROCS workers
//	experiments -quick          # reduced sweeps
//	experiments -only E5        # one experiment
//	experiments -only E1,E5,E9  # a selection
//	experiments -parallel 1     # force the sequential path (same bytes)
//	experiments -json           # machine-readable output, one object per table
//
// Caching and sharding (see README "The result store"):
//
//	experiments -cache DIR               # memoize every simulation unit; a
//	                                     # warm re-run simulates nothing and
//	                                     # prints byte-identical tables
//	experiments -cache D1 -shard 1/3     # prime pass: execute only shard 1's
//	                                     # missing keys into D1, print no
//	                                     # tables (run one process per shard)
//	experiments -cache DIR -merge D1,D2,D3
//	                                     # fold the shard stores into DIR and
//	                                     # replay the whole suite from cache,
//	                                     # producing the canonical table
//
// Fleet-shared caching (see README "The remote store"): -store mounts a
// stored service (cmd/stored) as the result store, so any number of
// processes on any number of machines share one authoritative cache:
//
//	experiments -store http://ci-store:9200          # read+write the fleet store
//	experiments -store URL1,URL2,URL3                # a sharded fleet tier: each
//	                                                 # key lives on exactly one
//	                                                 # instance, batches split per
//	                                                 # replica, a down replica
//	                                                 # degrades to misses
//	experiments -store URL -shard 1/3                # prime shard 1 against it
//	                                                 # (run one process per shard,
//	                                                 # anywhere on the fleet)
//	experiments -cache DIR -store URL                # DIR as a local near tier:
//	                                                 # each key is fetched from
//	                                                 # the fleet store once, ever
//	experiments -cache DIR -store URL -merge D1,D2   # push local shard stores
//	                                                 # up to the fleet store
//
// Observability (see README "Observability"): -capture persists every
// executed unit's step log into the store's blob tier, keyed by the same
// content address as its result; cmd/observe re-materializes a captured
// execution — verified by replay on a fresh machine.System, rendered as a
// per-process timeline plus summary — with zero re-simulation.
//
//	experiments -quick -cache DIR -capture   # capture while running
//	observe -cache DIR KEY                   # replay one stored execution
//
// Tables go to stdout; timing, cache statistics and diagnostics go to
// stderr, so stdout is byte-identical across cold, warm, and
// sharded-then-merged runs at any -parallel setting.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/session"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// jsonTable is the -json wire form of one experiment result. It carries no
// timing — the data stream must be a pure function of the experiment
// inputs; per-table seconds are printed to stderr.
type jsonTable struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	Pass   bool       `json:"pass"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(os.Stderr) // diagnostics and usage must not corrupt the data stream on w
	var (
		quick  = fs.Bool("quick", false, "reduced sweep sizes")
		only   = fs.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E5); empty runs all")
		seed   = fs.Int64("seed", 20060723, "seed for sampled permutations and schedules")
		asJSON = fs.Bool("json", false, "emit each table as a JSON object instead of aligned text")
	)
	sf := session.FlagConfig(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	s, err := session.Open(sf.Config("experiments"))
	if err != nil {
		return err
	}
	defer s.Close()

	// -only must fail loudly on typos: an unknown or duplicate ID means the
	// invocation is not measuring what its author thinks it is.
	known := map[string]bool{}
	knownIDs := make([]string, 0, len(experiments.All()))
	for _, e := range experiments.All() {
		known[e.ID] = true
		knownIDs = append(knownIDs, e.ID)
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !known[id] {
			fs.Usage()
			return fmt.Errorf("unknown experiment %q in -only (known: %s)", id, strings.Join(knownIDs, ","))
		}
		if selected[id] {
			fs.Usage()
			return fmt.Errorf("duplicate experiment %q in -only", id)
		}
		selected[id] = true
	}

	shardI, shardM := s.Shard()
	priming := s.Priming()

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Engine: s.Engine()}
	enc := json.NewEncoder(w)
	failures := 0
	for _, e := range experiments.All() {
		if len(selected) > 0 && !selected[e.ID] {
			continue
		}
		start := time.Now() //repro:wallclock elapsed time goes to the stderr progress line, never into a table
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		elapsed := time.Since(start).Seconds() //repro:wallclock elapsed time goes to the stderr progress line, never into a table
		if priming {
			// A prime pass only fills the store; its tables fold nothing and
			// carry no verdicts.
			fmt.Fprintf(os.Stderr, "experiments: primed %s shard %d/%d (%.2fs)\n", e.ID, shardI+1, shardM, elapsed)
			continue
		}
		fmt.Fprintf(os.Stderr, "experiments: %s (%.2fs)\n", e.ID, elapsed)
		if *asJSON {
			if err := enc.Encode(jsonTable{
				ID: tbl.ID, Title: tbl.Title, Claim: tbl.Claim,
				Header: tbl.Header, Rows: tbl.Rows, Notes: tbl.Notes,
				Pass: tbl.Pass,
			}); err != nil {
				return err
			}
		} else {
			fmt.Fprint(w, tbl.Format())
			fmt.Fprintln(w)
		}
		if !tbl.Pass {
			failures++
		}
	}
	if priming {
		return nil
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed their shape checks", failures)
	}
	return nil
}
