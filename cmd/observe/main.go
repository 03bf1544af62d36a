// Command observe streams captured execution traces — the blobs the
// -capture flag of cmd/experiments and cmd/tournament persists — from a
// local store or a routed fleet, without re-simulating anything: no
// scheduler runs, and the recorded steps are stepped once, by
// trace.VerifyRecord. Every view below renders the record it accepted.
//
// Usage:
//
//	observe -cache DIR -list            # enumerate captured traces
//	observe -cache DIR KEY              # per-process timeline + summary
//	observe -cache DIR -summary KEY     # per-process totals only
//	observe -cache DIR -heatmap KEY     # per-register access heatmap
//	observe -cache DIR -metasteps KEY   # state-change (metastep) boundaries
//	observe -store URL KEY              # fetch the trace from a fleet
//	observe -cache DIR -max 200 KEY     # cap the timeline length
//
// Keys are the same content addresses the result store uses — the key a
// run's -capture stored is the key its result is cached under, so a row in
// any experiment table can be traced back to the exact execution that
// produced it. Every trace is verified by replay on a fresh System before it
// is rendered: a blob that does not replay to its recorded steps and
// changed flags bit for bit is refused, never displayed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/program"
	"repro/internal/runner"
	"repro/internal/session"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "observe:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("observe", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		list      = fs.Bool("list", false, "enumerate captured traces (key, algorithm, n, steps) and exit")
		summary   = fs.Bool("summary", false, "print only the per-process summary")
		heatmap   = fs.Bool("heatmap", false, "print only the per-register access heatmap")
		metasteps = fs.Bool("metasteps", false, "print only the state-change (metastep) boundaries")
		maxSteps  = fs.Int("max", 0, "cap the rendered timeline at this many steps (0 = all)")
	)
	sf := session.FlagConfig(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	cfg := sf.Config("observe")
	s, err := session.Open(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if cfg.CacheDir == "" && cfg.StoreURL == "" {
		fs.Usage()
		return fmt.Errorf("traces live in a store: pass -cache DIR and/or -store URL")
	}
	st := s.Store()

	if *list {
		return listTraces(w, st)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one KEY argument expected (or -list); got %d", fs.NArg())
	}
	key := fs.Arg(0)
	rec, f, sc, err := load(st, key)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s\nalgo=%s n=%d steps=%d sc=%d\n\n", key, rec.Algo, rec.N, len(rec.Exec), sc)

	if *summary {
		fmt.Fprint(w, trace.Summary(rec.N, rec.Exec, rec.Changed))
	}
	if *heatmap {
		heatmapView(w, f, rec)
	}
	if *metasteps {
		metastepView(w, f, rec)
	}
	if !*summary && !*heatmap && !*metasteps {
		fmt.Fprintln(w, trace.Timeline(rec.N, rec.Exec, rec.Changed, trace.Options{MaxSteps: *maxSteps, RegisterName: regNamer(f)}))
		fmt.Fprint(w, trace.Summary(rec.N, rec.Exec, rec.Changed))
	}
	return nil
}

// load fetches, decodes and verifies one captured trace.
func load(st *store.Store, key string) (trace.Record, program.Factory, int, error) {
	blob, ok := st.BlobGet(key)
	if !ok {
		return trace.Record{}, nil, 0, fmt.Errorf("no captured trace under %s (capture one with `experiments -capture` or `tournament -capture`)", key)
	}
	rec, err := trace.DecodeRecord(blob)
	if err != nil {
		return trace.Record{}, nil, 0, fmt.Errorf("%s: %w", key, err)
	}
	f, err := runner.NewFactory(rec.Algo, rec.N)
	if err != nil {
		return trace.Record{}, nil, 0, fmt.Errorf("%s: %w", key, err)
	}
	sc, err := trace.VerifyRecord(f, rec)
	if err != nil {
		return trace.Record{}, nil, 0, fmt.Errorf("%s: %w", key, err)
	}
	return rec, f, sc, nil
}

// listTraces enumerates the blob tier, decoding each trace for its
// coordinates — the fastest way to find a key worth replaying.
func listTraces(w io.Writer, st *store.Store) error {
	keys := st.BlobKeys()
	if keys == nil {
		return fmt.Errorf("this mount cannot enumerate traces (fleet blob tiers fetch by key); list against the server's own -cache directory")
	}
	for _, k := range keys {
		blob, ok := st.BlobGet(k)
		if !ok {
			continue
		}
		rec, err := trace.DecodeRecord(blob)
		if err != nil {
			fmt.Fprintf(w, "%s  (undecodable: %v)\n", k, err)
			continue
		}
		fmt.Fprintf(w, "%s  algo=%s n=%d steps=%d\n", k, rec.Algo, rec.N, len(rec.Exec))
	}
	fmt.Fprintf(os.Stderr, "observe: %d captured trace(s)\n", len(keys)) //repro:degrade diagnostic line on stderr
	return nil
}

// regNamer resolves register names when the factory exposes a layout
// (the register-only algorithms of internal/mutex); r%d otherwise.
func regNamer(f program.Factory) func(model.RegID) string {
	lf, ok := f.(interface{ Layout() *mutex.Layout })
	if !ok {
		return nil // trace.Options falls back to r%d
	}
	return func(r model.RegID) string {
		if name := lf.Layout().Name(r); name != "" {
			return name
		}
		return fmt.Sprintf("r%d", r)
	}
}

// heatmapView aggregates shared accesses per register: how often each was
// read, written, RMW'd, and how many of those accesses the SC model
// charged — the register contention picture of the run, with a bar scaled
// to the busiest register.
func heatmapView(w io.Writer, f program.Factory, rec trace.Record) {
	type cell struct{ reads, writes, rmws, charged int }
	var maxReg model.RegID
	for _, s := range rec.Exec {
		if s.IsShared() && s.Reg > maxReg {
			maxReg = s.Reg
		}
	}
	cells := make([]cell, int(maxReg)+1)
	for t, s := range rec.Exec {
		if !s.IsShared() {
			continue
		}
		c := &cells[s.Reg]
		switch s.Kind {
		case model.KindRead:
			c.reads++
		case model.KindWrite:
			c.writes++
		case model.KindRMW:
			c.rmws++
		}
		if rec.Changed[t] {
			c.charged++
		}
	}
	busiest := 1
	for _, c := range cells {
		if t := c.reads + c.writes + c.rmws; t > busiest {
			busiest = t
		}
	}
	name := regNamer(f)
	if name == nil {
		name = func(r model.RegID) string { return fmt.Sprintf("r%d", r) }
	}
	fmt.Fprintf(w, "%-16s %7s %7s %7s %8s  load\n", "register", "reads", "writes", "rmws", "charged")
	for r, c := range cells {
		total := c.reads + c.writes + c.rmws
		if total == 0 {
			continue
		}
		bar := (total*32 + busiest - 1) / busiest
		fmt.Fprintf(w, "%-16s %7d %7d %7d %8d  %s\n",
			name(model.RegID(r)), c.reads, c.writes, c.rmws, c.charged,
			"##################################"[:bar])
	}
}

// metastepView prints the run's state-change boundaries: each step the SC
// model charged opens a metastep, and the free steps that follow (local
// spins re-reading an unchanged register) belong to it. The step spans
// show how much real time each unit of SC cost absorbs — the busywait
// discount of the model, made visible.
func metastepView(w io.Writer, f program.Factory, rec trace.Record) {
	name := regNamer(f)
	if name == nil {
		name = func(r model.RegID) string { return fmt.Sprintf("r%d", r) }
	}
	describe := func(s model.Step) string {
		if s.Kind == model.KindCrit {
			return fmt.Sprintf("p%d %s", s.Proc, s.Crit)
		}
		return fmt.Sprintf("p%d %s %s", s.Proc, s.Kind, name(s.Reg))
	}
	fmt.Fprintf(w, "%-6s %-14s %6s  boundary\n", "meta", "steps", "free")
	meta, start := 0, 0
	var boundary string
	flush := func(end int) {
		if boundary == "" {
			if end > start {
				fmt.Fprintf(w, "%-6s [%d..%d] %6d  (uncharged prelude)\n", "-", start, end-1, end-start)
			}
			return
		}
		fmt.Fprintf(w, "%-6d [%d..%d] %6d  %s\n", meta, start, end-1, end-start-1, boundary)
		meta++
	}
	for t, s := range rec.Exec {
		if rec.Changed[t] && s.IsShared() {
			flush(t)
			start, boundary = t, describe(s)
		}
	}
	flush(len(rec.Exec))
	fmt.Fprintf(w, "%d metasteps over %d steps\n", meta, len(rec.Exec))
}
