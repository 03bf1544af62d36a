package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/session"
	"repro/internal/store"
)

// batchEnv is a set-up reproduce-cold or replay-fleet workload: the mount
// every op makes, the fleet it mounts (replay-fleet), and the reference
// reproduction every op must match byte for byte.
type batchEnv struct {
	b     *bench
	cfg   session.Config
	fresh bool // reproduce-cold: each op mounts a fresh, empty local store
	fleet []*daemon
	ref   *reproduction
}

func (e *batchEnv) close() {
	for _, d := range e.fleet {
		if err := e.b.stop(d); err != nil {
			logf("stop %s: %v", d.name, err)
		}
	}
}

// opOut is one op's outcome.
type opOut struct {
	wall  time.Duration
	rep   *reproduction
	stats store.Stats
}

// op mounts, reproduces and closes once. Only mount-to-close is timed;
// making and removing a fresh store directory are not.
func (e *batchEnv) op(tr *tracer) (opOut, error) {
	cfg := e.cfg
	if e.fresh {
		dir, err := e.b.tempDir("store-")
		if err != nil {
			return opOut{}, err
		}
		defer os.RemoveAll(dir)
		cfg.CacheDir = dir
	}
	mount := open
	if tr != nil {
		mount = func(cfg session.Config) (*mounted, error) { return openTraced(cfg, tr) }
	}
	start := time.Now()
	endOp := tr.begin("op")
	endOpen := tr.begin("session.open")
	m, err := mount(cfg)
	endOpen()
	if err != nil {
		endOp()
		return opOut{}, err
	}
	rep, err := reproduce(m.eng, e.b.seed, tr)
	stats := m.store.Stats()
	endClose := tr.begin("session.close")
	cerr := m.close()
	endClose()
	endOp()
	wall := time.Since(start)
	if err != nil {
		return opOut{}, err
	}
	if cerr != nil {
		return opOut{}, cerr
	}
	return opOut{wall: wall, rep: rep, stats: stats}, nil
}

// check holds an op to its workload's correctness rule: every table and
// grid cell byte-identical to the set-up op, and for replay-fleet nothing
// simulated.
func (e *batchEnv) check(o opOut) error {
	if err := o.rep.same(e.ref); err != nil {
		return err
	}
	if !e.fresh && o.stats.Misses != 0 {
		return fmt.Errorf("replay simulated %d units (store %s)", o.stats.Misses, o.stats)
	}
	return nil
}

// setupReproduceCold makes the reference op: the untimed warm-up that
// also fixes the bytes every timed op must reproduce.
func setupReproduceCold(b *bench) (*batchEnv, error) {
	e := &batchEnv{b: b, fresh: true, cfg: session.Config{Prog: "perfbench", Parallel: workers, Diag: io.Discard}}
	o, err := e.op(nil)
	if err != nil {
		return nil, err
	}
	e.ref = o.rep
	return e, nil
}

// setupReplayFleet starts two stored, fills them with one reproduce-cold
// op routed through them, and replays once untimed.
func setupReplayFleet(b *bench) (*batchEnv, error) {
	e := &batchEnv{b: b}
	for i := 0; i < 2; i++ {
		d, err := b.startStored()
		if err != nil {
			e.close()
			return nil, err
		}
		e.fleet = append(e.fleet, d)
	}
	e.cfg = session.Config{Prog: "perfbench", StoreURL: e.fleet[0].url + "," + e.fleet[1].url, Parallel: workers, Diag: io.Discard}
	fill, err := e.op(nil)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("fill: %w", err)
	}
	e.ref = fill.rep
	warm, err := e.op(nil)
	if err == nil {
		err = e.check(warm)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up replay: %w", err)
	}
	return e, nil
}

// batchLoop is one timed pass of ops.
type batchLoop struct {
	walls             []time.Duration
	attempted, failed int
	cpu               time.Duration // this process plus the fleet
	hits, misses      int64
	rt0, rt1          runtimeSample
}

// loop runs ops back to back (one caller, closed loop) for d.
func (e *batchEnv) loop(d time.Duration, tr *tracer) (batchLoop, error) {
	var lp batchLoop
	cpu0, err := e.cpu()
	if err != nil {
		return lp, err
	}
	lp.rt0 = readRuntime()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		tr.setOp(i)
		o, err := e.op(tr)
		lp.attempted++
		if err == nil {
			err = e.check(o)
		}
		if err != nil {
			lp.failed++
			logf("op %d failed: %v", i, err)
			continue
		}
		lp.walls = append(lp.walls, o.wall)
		lp.hits += o.stats.Hits
		lp.misses += o.stats.Misses
	}
	lp.rt1 = readRuntime()
	cpu1, err := e.cpu()
	if err != nil {
		return lp, err
	}
	lp.cpu = cpu1 - cpu0
	return lp, nil
}

// cpu is the CPU time of everything on the op path: this process and the
// fleet.
func (e *batchEnv) cpu() (time.Duration, error) {
	total := selfCPU()
	for _, d := range e.fleet {
		c, err := d.cpu()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func runReproduceCold(b *bench) (*outcome, error) {
	return runBatch(b, func() (*batchEnv, error) { return setupReproduceCold(b) })
}

func runReplayFleet(b *bench) (*outcome, error) {
	return runBatch(b, func() (*batchEnv, error) { return setupReplayFleet(b) })
}

// runBatch sets the workload up and runs the timed pass; with -trace 1 it
// follows with a traced pass and the probes.
func runBatch(b *bench, setup func() (*batchEnv, error)) (*outcome, error) {
	e, setupS, err := medianSetup(b, 3, setup)
	if err != nil {
		return nil, err
	}
	defer e.close()
	// replay-fleet's set-up is a cold reproduction; without the reset its
	// peak would stand in for the replays' own.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	lp, err := e.loop(b.seconds, nil)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: lp.attempted, failed: lp.failed, values: map[string]float64{}}
	walls := msSorted(lp.walls)
	p50, err := median(walls)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}
	ops := float64(len(lp.walls))
	var sum time.Duration
	for _, w := range lp.walls {
		sum += w
	}
	logf("%s: %d ops, p50 %.1f ms, %d failed", b.workload, len(lp.walls), p50, lp.failed)
	if !b.traced {
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		out.values["setup_s"] = setupS
		out.values["p50_ms"] = p50
		out.values["throughput_per_s"] = ratio(ops, sum.Seconds())
		out.values["cpu_ms_per_op"] = ratio(float64(lp.cpu)/1e6, ops)
		out.values["rss_peak_mb"] = rss
		return out, nil
	}

	v := out.values
	runtimeValues(v, lp.rt0, lp.rt1, len(lp.walls))
	v["runner.parallel_eff"] = ratio(lp.cpu.Seconds(), sum.Seconds()*workers)
	v["runner.units_executed"] = ratio(float64(lp.misses), ops)
	v["store.hit_ratio"] = ratio(float64(lp.hits), float64(lp.hits+lp.misses))
	v["adversary.candidates"] = float64(e.ref.candidates)
	v["adversary.useful_ratio"] = 1 - ratio(float64(e.ref.gridDiscarded), float64(e.ref.gridEvaluated))

	// The traced pass: half the measured time, spans around every call.
	before, err := scrapeAll(e.fleet)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tlp, err := e.loop(b.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(e.fleet)
	if err != nil {
		return nil, err
	}
	out.attempted += tlp.attempted
	out.failed += tlp.failed
	spans := tr.take()
	if err := b.writeSpans(spans); err != nil {
		return nil, err
	}
	st := summarize(spans)
	tp50, err := median(msSorted(tlp.walls))
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", b.workload, err)
	}
	v["trace_overhead_pct"] = 100 * (tp50 - p50) / p50
	v["layer_gap_pct"] = st.gapPct()
	v["machine.busy_s"] = st.selfPerOp("exp.E2", "exp.E7", "exp.E8", "exp.E12")
	v["proof.busy_s"] = st.selfPerOp("exp.E1", "exp.E3", "exp.E4", "exp.E5", "exp.E6", "exp.E9", "exp.E10", "exp.E11")
	v["adversary.busy_s"] = st.selfPerOp("exp.E13", "adversary.search")
	v["session.open_ms"] = st.meanDur("session.open", time.Millisecond)
	v["session.close_ms"] = st.meanDur("session.close", time.Millisecond)
	v["store.get_us"] = st.meanDur("store.get", time.Microsecond)
	v["store.put_us"] = st.meanDur("store.put", time.Microsecond)
	v["remote.mget_ms"] = st.meanDur("remote.getbatch", time.Millisecond)
	v["remote.mget_keys"] = ratio(float64(st.n["remote.getbatch"]), float64(st.count["remote.getbatch"]))
	if len(e.fleet) > 0 {
		fleetValues(v, before, after, float64(len(tlp.walls)))
		logRequestMix(before, after, "stored", len(tlp.walls))
	}
	return out, probes(b, v, nil)
}

// fleetValues fills the remote.* metrics stored's own /v1/metrics gives
// between two scrapes: mean server time per endpoint and requests per op.
func fleetValues(v map[string]float64, before, after scrapeSet, ops float64) {
	mean := func(endpoint string, unit float64) float64 {
		c, s := histDelta(before, after, "stored", endpoint)
		return ratio(s*unit, c)
	}
	v["remote.server_mget_ms"] = mean("mget", 1e3)
	v["remote.get_us"] = mean("get", 1e6)
	v["remote.put_us"] = mean("put", 1e6)
	v["remote.blob_put_us"] = mean("blob_put", 1e6)
	v["remote.roundtrips_per_op"] = ratio(requestDelta(before, after, "stored"), ops)
}
