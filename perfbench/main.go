// Command perfbench is the repository's benchmark: three workloads driven
// through the public entry points the binaries use — session.Open/Close,
// experiments.All() and adversary.SearchWorst in-process, and HTTP to real
// stored and experimentd processes — timed end to end with tracing off,
// and run once more with spans around every call into a layer for the
// per-layer metrics.
//
//	perfbench -workload reproduce-cold -seed 1 -seconds 20 -trace 0 -bin DIR -work DIR
//
// run.sh builds stored, experimentd and this driver from the checkout and
// starts it. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end set (endToEnd)
// with -trace 0, the per-layer set (perLayer) with -trace 1. Every op is
// checked for correctness; the simulated costs must come out byte
// identical, and host time is what is measured. Diagnostics go to stderr.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workers is the runner worker count and the serving connection count of
// every workload: 2, the core count of the box the benchmark was sized on.
// It is part of the workload definition, not read at run time.
const workers = 2

// watchdog bounds a whole run; a hung daemon or request ends the run with
// an error instead of outliving the driver's 180 s limit.
const watchdog = 170 * time.Second

// metricDef names one reported metric, its unit, and which direction is
// better.
type metricDef struct{ name, unit, better string }

// endToEnd is the metric set of an untraced run, reported by every
// workload. An op is one reproduction (reproduce-cold, replay-fleet) or one
// HTTP request (serve-mixed). setup_s is the median of three set-ups;
// p50_ms the nearest-rank median op wall time; cpu_ms_per_op the CPU time
// of the processes on the op path (this process and the fleet, or
// experimentd and its fleet; never the serve-mixed generator); rss_peak_mb
// the VmHWM of the process doing the work (this process over the timed
// ops, or experimentd). Every workload must report every metric here, so
// the ones only some workloads have — the serve class percentiles and the
// allocation count — are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer is the metric set of a traced run. A metric of a layer the
// workload does not reach reads 0 (FINDINGS.md lists which).
var perLayer = []metricDef{
	{"machine.busy_s", "s", "lower"},
	{"machine.unit_ms", "ms", "lower"},
	{"machine.steps_per_s", "1/s", "higher"},
	{"proof.busy_s", "s", "lower"},
	{"proof.construct_ms", "ms", "lower"},
	{"proof.encode_ms", "ms", "lower"},
	{"proof.decode_ms", "ms", "lower"},
	{"adversary.busy_s", "s", "lower"},
	{"adversary.candidates", "count", "lower"},
	{"adversary.useful_ratio", "ratio", "higher"},
	{"runner.parallel_eff", "ratio", "higher"},
	{"runner.units_executed", "count", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.hit_ratio", "ratio", "higher"},
	{"store.key_us", "us", "lower"},
	{"remote.mget_ms", "ms", "lower"},
	{"remote.mget_keys", "count", "higher"},
	{"remote.roundtrips_per_op", "count", "lower"},
	{"remote.server_mget_ms", "ms", "lower"},
	{"remote.get_us", "us", "lower"},
	{"remote.put_us", "us", "lower"},
	{"remote.blob_put_us", "us", "lower"},
	{"session.open_ms", "ms", "lower"},
	{"session.close_ms", "ms", "lower"},
	{"session.run_unit_hit_us", "us", "lower"},
	{"session.run_unit_miss_ms", "ms", "lower"},
	{"trace.encode_us", "us", "lower"},
	{"experimentd.handler_us", "us", "lower"},
	{"experimentd.http_us", "us", "lower"},
	{"experimentd.rejected", "count", "lower"},
	{"experimentd.coalesced", "count", "higher"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p99_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.miss_p99_ms", "ms", "lower"},
	{"trace_overhead_pct", "%", "lower"},
	{"layer_gap_pct", "%", "lower"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) (*outcome, error){
	"reproduce-cold": runReproduceCold,
	"replay-fleet":   runReplayFleet,
	"serve-mixed":    runServeMixed,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured: op counts and metric values by
// name.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

// bench is one benchmark invocation: its options, its scratch directory,
// and the daemons it has started and not yet stopped.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory holding the stored and experimentd binaries
	root     string // this run's scratch directory, removed at exit
	spansDir string // where a traced run writes its spans ("" = nowhere)

	mu    sync.Mutex
	procs map[*daemon]bool
}

func main() {
	b, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.abort("interrupted")
	}()
	dog := time.AfterFunc(watchdog, func() { b.abort(fmt.Sprintf("run exceeded %s", watchdog)) })
	res, err := b.run()
	dog.Stop()
	b.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*bench, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: reproduce-cold, replay-fleet or serve-mixed")
		seed     = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "measured seconds per pass")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		bin      = fs.String("bin", "", "directory holding the stored and experimentd binaries")
		work     = fs.String("work", "", "scratch directory for stores and spans (created if missing)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[*workload]; !ok {
		return nil, fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *bin == "" || *work == "" {
		return nil, errors.New("need -seconds >= 1, -trace 0|1, -bin DIR and -work DIR")
	}
	for _, name := range []string{"stored", "experimentd"} {
		if _, err := os.Stat(filepath.Join(*bin, name)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		bin:      *bin,
		root:     root,
		procs:    map[*daemon]bool{},
	}
	if b.traced {
		b.spansDir = filepath.Join(*work, "spans")
	}
	return b, nil
}

// run measures the workload and assembles the result line.
func (b *bench) run() (*result, error) {
	out, err := workloads[b.workload](b)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !b.traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s not measured", b.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", b.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no op completed in %s", b.workload, b.seconds)
	}
	return res, nil
}

// tempDir makes a fresh directory under the run's scratch root.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.root, prefix)
}

// cleanup stops every daemon still running and removes the scratch root.
func (b *bench) cleanup() {
	b.mu.Lock()
	procs := make([]*daemon, 0, len(b.procs))
	for d := range b.procs {
		procs = append(procs, d)
	}
	b.mu.Unlock()
	for _, d := range procs {
		if err := b.stop(d); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stop %s: %v\n", d.name, err)
		}
	}
	if err := os.RemoveAll(b.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
	}
}

// abort ends the process from a signal or the watchdog, without printing a
// result.
func (b *bench) abort(why string) {
	fmt.Fprintln(os.Stderr, "perfbench:", why)
	b.cleanup()
	os.Exit(3)
}

// logf writes one diagnostic line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// writeSpans writes a traced pass's spans, one JSON object per line.
func (b *bench) writeSpans(spans []span) error {
	if b.spansDir == "" {
		return nil
	}
	if err := os.MkdirAll(b.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.spansDir, b.workload+"-seed"+strconv.FormatInt(b.seed, 10)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("wrote %d spans to %s", len(spans), path)
	return nil
}

// medianSetup times repeats set-ups (one when traced) and returns the
// environment of the last together with the median set-up time in
// seconds. Every earlier environment is closed before the next set-up.
func medianSetup[E interface{ close() }](b *bench, repeats int, setup func() (E, error)) (E, float64, error) {
	if b.traced {
		repeats = 1
	}
	var env E
	var times []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			env.close()
		}
		start := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return zero, 0, fmt.Errorf("setup: %w", err)
		}
		env = e
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	logf("%s setup_s %v", b.workload, times)
	return env, times[len(times)/2], nil
}
