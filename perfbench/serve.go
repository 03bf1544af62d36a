package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perm"
	"repro/internal/runner"
	"repro/internal/session"
)

// warmupRequests is the size of the untimed warm-up pass of a set-up: big
// enough that set-up time is mostly serving, not the daemons' start, whose
// few tens of milliseconds swing widely on a shared box.
const warmupRequests = 1500

// maxLogged bounds the failed requests a pass logs one by one; all of
// them are counted.
const maxLogged = 5

// seqPerSecond sizes the pre-encoded request sequence: more requests per
// measured second than two connections complete, so a pass ends on its
// deadline, not on the sequence's end.
const seqPerSecond = 6000

// serveEnv is a set-up serve-mixed workload: a routed two-stored fleet,
// experimentd mounted on it, a client of workers keep-alive connections,
// and the expected bytes of every hot cell.
type serveEnv struct {
	b      *bench
	stored []*daemon
	expd   *daemon
	client *http.Client
	runURL string
	ref    *session.Session // store-less: the bytes `mutexsim -json` prints
	expect [][]byte         // per hot cell
}

func (e *serveEnv) close() {
	if e.ref != nil {
		e.ref.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for _, d := range append([]*daemon{e.expd}, e.stored...) {
		if d == nil {
			continue
		}
		if err := e.b.stop(d); err != nil {
			logf("stop %s: %v", d.name, err)
		}
	}
}

// expected renders a unit's canonical result exactly as `mutexsim -json`
// and experimentd do: one encoding/json line.
func expected(s *session.Session, u session.Unit) ([]byte, error) {
	res, err := s.RunUnit(u)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func setupServeMixed(b *bench) (*serveEnv, error) {
	e := &serveEnv{b: b}
	fail := func(err error) (*serveEnv, error) {
		e.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		d, err := b.startStored()
		if err != nil {
			return fail(err)
		}
		e.stored = append(e.stored, d)
	}
	d, err := b.start("experimentd", "-addr", "127.0.0.1:0",
		"-store", e.stored[0].url+","+e.stored[1].url,
		"-capture", "-inflight", strconv.Itoa(workers))
	if err != nil {
		return fail(err)
	}
	e.expd = d
	e.runURL = d.url + "/v1/run"
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}
	if e.ref, err = session.Open(session.Config{Prog: "perfbench", Parallel: workers, Diag: io.Discard}); err != nil {
		return fail(err)
	}
	var buf bytes.Buffer
	for i, u := range hotSet() {
		want, err := expected(e.ref, u)
		if err != nil {
			return fail(err)
		}
		e.expect = append(e.expect, want)
		body, err := json.Marshal(u)
		if err != nil {
			return fail(err)
		}
		status, err := e.post(body, &buf)
		if err != nil || status != http.StatusOK || !bytes.Equal(buf.Bytes(), want) {
			return fail(fmt.Errorf("priming hot cell %d: status %d: %v", i, status, err))
		}
	}
	warm := serveSequence(b.seed, 1, warmupRequests)
	res, _ := e.loop(warm, time.Hour, nil)
	if failed := e.verify(warm, res); failed > 0 || len(res) != len(warm) {
		return fail(fmt.Errorf("warm-up: %d of %d requests failed", failed, len(res)))
	}
	return e, nil
}

// post sends one pre-encoded unit and reads the whole reply into buf.
func (e *serveEnv) post(body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := e.client.Post(e.runURL, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// served is one request's outcome.
type served struct {
	lat  time.Duration
	ok   bool   // 200, and for a hot cell the expected bytes
	body []byte // a cold-tail reply, checked after the pass
}

// loop is the closed loop: workers connections each send the next request
// of seq as soon as their previous reply is in, until d has passed or seq
// runs out. With a tracer every request is an op root span.
func (e *serveEnv) loop(seq []serveReq, d time.Duration, tr *tracer) ([]served, time.Duration) {
	out := make([]served, len(seq))
	var next, logged atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				r := &seq[i]
				t0 := time.Now()
				status, err := e.post(r.body, &buf)
				t1 := time.Now()
				s := served{lat: t1.Sub(t0)}
				switch {
				case err != nil || status != http.StatusOK:
					if logged.Add(1) <= maxLogged {
						logf("request %d (%s n=%d): status %d: %v", i, r.unit.Algo, r.unit.N, status, err)
					}
				case r.hot >= 0:
					s.ok = bytes.Equal(buf.Bytes(), e.expect[r.hot])
				default:
					s.ok = true
					s.body = bytes.Clone(buf.Bytes())
				}
				out[i] = s
				if tr != nil {
					tr.add(span{Name: "op", Op: i, Start: tr.since(t0), End: tr.since(t1), Parent: -1})
				}
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(seq))
	return out[:n], time.Since(start)
}

// verify checks every cold-tail reply against the store-less session's
// bytes, outside the timed pass, and counts the failed requests.
func (e *serveEnv) verify(seq []serveReq, res []served) int {
	var failed atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(res) {
					return
				}
				s := &res[i]
				if s.ok && s.body != nil {
					want, err := expected(e.ref, seq[i].unit)
					s.ok = err == nil && bytes.Equal(s.body, want)
					s.body = nil
				}
				if !s.ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load())
}

// cpu is the CPU time of experimentd and of the whole fleet.
func (e *serveEnv) cpu() (expd, all time.Duration, err error) {
	if expd, err = e.expd.cpu(); err != nil {
		return 0, 0, err
	}
	all = expd
	for _, d := range e.stored {
		c, err := d.cpu()
		if err != nil {
			return 0, 0, err
		}
		all += c
	}
	return expd, all, nil
}

// classLatencies splits the successful requests' latencies by class, in
// sorted milliseconds.
func classLatencies(seq []serveReq, res []served) (all, hit, miss []float64) {
	var a, h, m []time.Duration
	for i, s := range res {
		if !s.ok {
			continue
		}
		a = append(a, s.lat)
		if seq[i].hot >= 0 {
			h = append(h, s.lat)
		} else {
			m = append(m, s.lat)
		}
	}
	return msSorted(a), msSorted(h), msSorted(m)
}

func runServeMixed(b *bench) (*outcome, error) {
	e, setupS, err := medianSetup(b, 3, func() (*serveEnv, error) { return setupServeMixed(b) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	total := b.seconds + b.seconds/2
	seq := serveSequence(b.seed, 0, int(total.Seconds()*seqPerSecond))
	expd0, cpu0, err := e.cpu()
	if err != nil {
		return nil, err
	}
	res, window := e.loop(seq, b.seconds, nil)
	expd1, cpu1, err := e.cpu()
	if err != nil {
		return nil, err
	}
	if len(res) == len(seq) {
		logf("warning: the request sequence ran out before the deadline")
	}
	out := &outcome{attempted: len(res), failed: e.verify(seq, res), values: map[string]float64{}}
	all, hit, miss := classLatencies(seq, res)
	p50, err := median(all)
	if err != nil {
		return nil, err
	}
	logf("serve-mixed: %d requests (%d hit, %d miss) in %.2fs, p50 %.3f ms, %d failed",
		len(res), len(hit), len(miss), window.Seconds(), p50, out.failed)
	// Class percentiles are per-layer metrics, but every run checks and logs
	// them with their sample counts.
	v := out.values
	for _, q := range []struct {
		name    string
		samples []float64
		p       float64
	}{
		{"serve.hit_p50_ms", hit, 0.5}, {"serve.hit_p99_ms", hit, 0.99},
		{"serve.miss_p50_ms", miss, 0.5}, {"serve.miss_p99_ms", miss, 0.99},
	} {
		var x float64
		if q.p == 0.5 {
			x, err = median(q.samples)
		} else {
			x, err = tail(q.samples, q.p)
		}
		if err != nil && b.traced {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		if err != nil {
			logf("%s not reported: %v", q.name, err)
			continue
		}
		v[q.name] = x
		logf("%s %.3f over %d samples", q.name, x, len(q.samples))
	}
	if !b.traced {
		rss, err := peakRSSMB(strconv.Itoa(e.expd.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		v["setup_s"] = setupS
		v["p50_ms"] = p50
		v["throughput_per_s"] = ratio(float64(len(all)), window.Seconds())
		v["cpu_ms_per_op"] = ratio(float64(cpu1-cpu0)/1e6, float64(len(res)))
		v["rss_peak_mb"] = rss
		return out, nil
	}

	v["runner.parallel_eff"] = ratio((expd1 - expd0).Seconds(), window.Seconds()*workers)

	// The traced pass: the sequence continues, so its cold tail is still
	// unrequested; experimentd is scraped first before and last after,
	// because its own scrapes ping the fleet.
	beforeD, err := scrapeAll([]*daemon{e.expd})
	if err != nil {
		return nil, err
	}
	beforeS, err := scrapeAll(e.stored)
	if err != nil {
		return nil, err
	}
	rest := seq[len(res):]
	tr := newTracer()
	tres, _ := e.loop(rest, b.seconds/2, tr)
	afterS, err := scrapeAll(e.stored)
	if err != nil {
		return nil, err
	}
	afterD, err := scrapeAll([]*daemon{e.expd})
	if err != nil {
		return nil, err
	}
	out.attempted += len(tres)
	out.failed += e.verify(rest, tres)
	spans := tr.take()
	if err := b.writeSpans(spans); err != nil {
		return nil, err
	}
	tall, _, _ := classLatencies(rest, tres)
	tp50, err := median(tall)
	if err != nil {
		return nil, err
	}
	n := float64(len(tres))
	v["trace_overhead_pct"] = 100 * (tp50 - p50) / p50
	_, handlerS := histDelta(beforeD, afterD, "experimentd", "run")
	st := summarize(spans)
	// The daemon is another process: the layer below the request span is
	// its handler, and the gap is HTTP, the wire and the client.
	v["layer_gap_pct"] = 100 * ratio(float64(st.opWall)-handlerS*1e9, float64(st.opWall))
	num := func(set scrapeSet, key string) float64 {
		x, _ := set.stats[0][key].(float64)
		return x
	}
	storeNum := func(set scrapeSet, key string) float64 {
		m, _ := set.stats[0]["store"].(map[string]any)
		x, _ := m[key].(float64)
		return x
	}
	v["experimentd.rejected"] = num(afterD, "rejected") - num(beforeD, "rejected")
	v["experimentd.coalesced"] = num(afterD, "coalesced") - num(beforeD, "coalesced")
	hits := storeNum(afterD, "Hits") - storeNum(beforeD, "Hits")
	misses := storeNum(afterD, "Misses") - storeNum(beforeD, "Misses")
	v["store.hit_ratio"] = ratio(hits, hits+misses)
	v["runner.units_executed"] = ratio(misses, n)
	fleetValues(v, beforeS, afterS, n)

	var cold []session.Unit
	for _, r := range rest[:len(tres)] {
		if r.hot < 0 {
			cold = append(cold, r.unit)
		}
	}
	if err := probes(b, v, cold); err != nil {
		return nil, err
	}
	v["machine.busy_s"] = v["machine.unit_ms"] / 1e3 * ratio(float64(len(cold)), n)
	if err := replayUnits(b, v, rest[:len(tres)]); err != nil {
		return nil, err
	}
	v["experimentd.http_us"] = v["serve.hit_p50_ms"]*1e3 - v["session.run_unit_hit_us"]
	handlerUs, err := e.hotHandler()
	if err != nil {
		return nil, err
	}
	v["experimentd.handler_us"] = handlerUs
	return out, nil
}

// hotProbeRequests is the size of the hot-only burst hotHandler sends.
const hotProbeRequests = 3000

// hotHandler sends a burst of hot-cell requests alone and returns
// experimentd's own mean /v1/run handler time over it, in µs: the
// server-side share of a hit, which the mixed pass's histogram blends
// with misses.
func (e *serveEnv) hotHandler() (float64, error) {
	hot := hotSet()
	seq := make([]serveReq, hotProbeRequests)
	for i := range seq {
		u := hot[i%len(hot)]
		body, err := json.Marshal(u)
		if err != nil {
			return 0, err
		}
		seq[i] = serveReq{body: body, unit: u, hot: i % len(hot)}
	}
	before, err := scrapeAll([]*daemon{e.expd})
	if err != nil {
		return 0, err
	}
	res, _ := e.loop(seq, time.Hour, nil)
	after, err := scrapeAll([]*daemon{e.expd})
	if err != nil {
		return 0, err
	}
	if failed := e.verify(seq, res); failed > 0 {
		return 0, fmt.Errorf("hot probe: %d of %d requests failed", failed, len(res))
	}
	c, s := histDelta(before, after, "experimentd", "run")
	return ratio(s*1e6, c), nil
}

// replayCap bounds the requests the in-process replay re-runs.
const replayCap = 3000

// replayUnits replays a request sequence in-process on its own fresh
// two-stored fleet, through the path Session.RunUnit takes (Unit.Job,
// CachedEngine.RunOne, UnitResult) on an engine whose backend is recorded:
// the session and store metrics of serving, without HTTP.
func replayUnits(b *bench, v map[string]float64, seq []serveReq) error {
	if len(seq) > replayCap {
		seq = seq[:replayCap]
	}
	var fleet []*daemon
	defer func() {
		for _, d := range fleet {
			if err := b.stop(d); err != nil {
				logf("stop %s: %v", d.name, err)
			}
		}
	}()
	for i := 0; i < 2; i++ {
		d, err := b.startStored()
		if err != nil {
			return err
		}
		fleet = append(fleet, d)
	}
	tr := newTracer()
	cfg := session.Config{Prog: "perfbench", StoreURL: fleet[0].url + "," + fleet[1].url, Capture: true, Parallel: workers}
	endOpen := tr.begin("session.open")
	m, err := openTraced(cfg, tr)
	endOpen()
	if err != nil {
		return err
	}
	for _, u := range hotSet() {
		if _, err := runUnit(m.eng, u); err != nil {
			return err
		}
	}
	rt0 := readRuntime()
	lat := make([]time.Duration, len(seq))
	errs := make([]error, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				t0 := time.Now()
				_, errs[i] = runUnit(m.eng, seq[i].unit)
				lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	rt1 := readRuntime()
	endClose := tr.begin("session.close")
	cerr := m.close()
	endClose()
	if cerr != nil {
		return cerr
	}
	var hit, miss []time.Duration
	for i, r := range seq {
		if errs[i] != nil {
			return fmt.Errorf("replay %s n=%d: %w", r.unit.Algo, r.unit.N, errs[i])
		}
		if r.hot >= 0 {
			hit = append(hit, lat[i])
		} else {
			miss = append(miss, lat[i])
		}
	}
	h, err := median(msSorted(hit))
	if err != nil {
		return err
	}
	ms, err := median(msSorted(miss))
	if err != nil {
		return err
	}
	st := summarize(tr.take())
	v["session.run_unit_hit_us"] = h * 1e3
	v["session.run_unit_miss_ms"] = ms
	v["session.open_ms"] = st.meanDur("session.open", time.Millisecond)
	v["session.close_ms"] = st.meanDur("session.close", time.Millisecond)
	v["store.get_us"] = st.meanDur("store.get", time.Microsecond)
	v["store.put_us"] = st.meanDur("store.put", time.Microsecond)
	runtimeValues(v, rt0, rt1, len(seq))
	return nil
}

// runUnit is Session.RunUnit's path on an engine the benchmark built
// (Session cannot mount a recorded backend): resolve the unit, run it
// through the store, and render the canonical result.
func runUnit(eng *runner.CachedEngine, u session.Unit) (session.UnitResult, error) {
	j, err := u.Job()
	if err != nil {
		return session.UnitResult{}, err
	}
	rep, err := eng.RunOne(j)
	if err != nil {
		return session.UnitResult{}, err
	}
	res := session.UnitResult{Unit: u, Key: j.CacheKey(), Report: rep}
	res.Sched = j.Sched.Kind
	if d := perm.NLogN(u.N); d > 0 {
		res.SCPerNLogN = float64(rep.SC) / d
	}
	return res, nil
}
