package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/session"
	"repro/internal/store"
)

func TestServeSequenceIsAPureFunctionOfTheSeed(t *testing.T) {
	a := serveSequence(7, 0, 2000)
	b := serveSequence(7, 0, 2000)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].hot != b[i].hot {
			t.Fatalf("request %d differs between two draws of seed 7", i)
		}
	}
	other := serveSequence(8, 0, 2000)
	same := 0
	for i := range a {
		if bytes.Equal(a[i].body, other[i].body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("a held-out seed gives the same sequence")
	}

	// Classes come from the input: hot requests name a hot cell, cold ones
	// a unit no earlier request (nor the warm-up phase) named.
	hot := hotSet()
	seen := map[string]bool{}
	for _, r := range serveSequence(7, 1, warmupRequests) {
		if r.hot < 0 {
			seen[string(r.body)] = true
		}
	}
	nHot := 0
	var tail []session.Unit
	for i, r := range a {
		var u session.Unit
		if err := json.Unmarshal(r.body, &u); err != nil || u != r.unit {
			t.Fatalf("request %d: body %s does not encode its unit: %v", i, r.body, err)
		}
		if r.hot >= 0 {
			nHot++
			if u != hot[r.hot] {
				t.Fatalf("request %d: classed hot cell %d but asks for %+v", i, r.hot, u)
			}
			continue
		}
		if u.Sched != "random" || seen[string(r.body)] {
			t.Fatalf("request %d: cold unit %s is not fresh", i, r.body)
		}
		seen[string(r.body)] = true
		tail = append(tail, u)
	}
	if nHot*coldEvery != len(a)*(coldEvery-1) {
		t.Fatalf("%d of %d requests hot, want exactly 4 in 5", nHot, len(a))
	}
	// Every round of cold requests asks for each tail cell once, so seeds
	// differ in order, not in how much simulation the tail needs.
	cells := tailCells()
	for start := 0; start+len(cells) <= len(tail); start += len(cells) {
		got := map[session.Unit]int{}
		for _, u := range tail[start : start+len(cells)] {
			u.Seed = 0
			got[u]++
		}
		for _, c := range cells {
			if got[c] != 1 {
				t.Fatalf("cold round at %d asks for %+v %d times", start, c, got[c])
			}
		}
	}
}

func TestNearestRankPercentiles(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {0.001, 1, 99}, {1, 100, 0}} {
		v, beyond := nearestRank(s, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("p%g = %v (%d beyond), want %v (%d beyond)", c.p*100, v, beyond, c.want, c.beyond)
		}
	}
	if v, err := tail(s, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := tail(s, 0.99); err == nil {
		t.Error("p99 of 100 samples leaves 1 beyond; tail must refuse it")
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples must fail")
	}
	if v, err := median([]float64{3}); err != nil || v != 3 {
		t.Errorf("median of one sample = %v, %v", v, err)
	}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 0, Start: 0, End: 100},
		{Name: "exp.E1", Op: 0, Start: 10, End: 90},
		// Two workers' store calls overlap inside E1: [20,50) ∪ [40,60)
		// covers 40, not 50.
		{Name: "store.get", Op: 0, Start: 20, End: 50},
		{Name: "store.get", Op: 0, Start: 40, End: 60},
		// A wire call under the second store call.
		{Name: "remote.get", Op: 0, Start: 45, End: 55},
		// Another op's span never parents this op's.
		{Name: "exp.E2", Op: 1, Start: 0, End: 1000},
	}
	resolveParents(spans)
	wantParent := []int{-1, 0, 1, 1, 3, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	want := []int64{20, 40, 30, 10, 10, 1000}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	st := summarize(spans[:5])
	// The layers cover [10,90) of a 100 ns op: a 20% gap, although their
	// self times (40+30+10+10) would sum to 90 with the overlap counted
	// twice.
	if g := st.gapPct(); g != 20 {
		t.Fatalf("gap %.1f%%, want 20%%", g)
	}
}

func TestRecordingWrappersKeepTheBackendSurface(t *testing.T) {
	srv := httptest.NewServer(remote.NewServer(store.New(0, nil)))
	defer srv.Close()
	cl, err := remote.NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rec := recordFleet(cl, tr, "remote")
	var be store.Backend = rec
	if _, ok := be.(store.BatchBackend); !ok {
		t.Error("fleet wrapper hides BatchBackend")
	}
	if _, ok := be.(store.HasBatcher); !ok {
		t.Error("fleet wrapper hides HasBatcher")
	}
	if _, ok := be.(store.BlobBackend); !ok {
		t.Error("fleet wrapper hides the blob methods")
	}
	st := store.New(0, rec)
	if !st.Batched() || !st.ProbeBatched() {
		t.Error("a store over the fleet wrapper would not batch")
	}
	if _, err := rec.PutBatch([]store.Entry{{Key: "k", Val: []byte(`1`)}}); err != nil {
		t.Fatal(err)
	}
	if got := st.Prefetch([]string{"k"}); !got["k"] {
		t.Fatalf("prefetch through the wrapper found %v", got)
	}
	spans := tr.take()
	if len(spans) != 2 || spans[1].Name != "remote.getbatch" || spans[1].N != 1 {
		t.Fatalf("spans %+v, want a putbatch and a one-key getbatch", spans)
	}

	dir := t.TempDir()
	local, err := store.OpenNDJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	lst := store.New(0, &recBackend{be: local, tr: tr, layer: "store"})
	defer lst.Close()
	if lst.Batched() || lst.ProbeBatched() {
		t.Error("the local wrapper invents batching the NDJSON log does not have")
	}
}

// TestTracedReplayOpSendsTheSameRequests holds the traced mount to the
// untraced one on the wire: tracing must not turn a batched prefetch into
// point gets, add pings, or drop the close-time stats fan-out.
func TestTracedReplayOpSendsTheSameRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a fleet with a whole reproduction")
	}
	var fleet []*daemon
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(remote.NewServer(store.New(0, nil)))
		defer srv.Close()
		fleet = append(fleet, &daemon{name: fmt.Sprintf("stored%d", i), url: srv.URL})
	}
	b := &bench{seed: 3}
	e := &batchEnv{b: b, cfg: session.Config{
		Prog: "perfbench", StoreURL: fleet[0].url + "," + fleet[1].url, Parallel: workers, Diag: io.Discard,
	}}
	fill, err := e.op(nil)
	if err != nil {
		t.Fatal(err)
	}
	e.ref = fill.rep
	requests := func(tr *tracer) map[string]float64 {
		before, err := scrapeAll(fleet)
		if err != nil {
			t.Fatal(err)
		}
		o, err := e.op(tr)
		if err == nil {
			err = e.check(o)
		}
		if err != nil {
			t.Fatal(err)
		}
		after, err := scrapeAll(fleet)
		if err != nil {
			t.Fatal(err)
		}
		d := map[string]float64{}
		for i := range fleet {
			for k, v := range after.metrics[i] {
				if strings.HasPrefix(k, "stored_requests_total{") {
					d[fmt.Sprintf("%d %s", i, k)] = v - before.metrics[i][k]
				}
			}
		}
		return d
	}
	untraced := requests(nil)
	tr := newTracer()
	traced := requests(tr)
	if !reflect.DeepEqual(untraced, traced) {
		t.Fatalf("stored request counts differ:\nuntraced %v\ntraced   %v", untraced, traced)
	}
	if untraced[`0 stored_requests_total{endpoint="mget"}`] == 0 {
		t.Fatalf("the replay sent no mget: %v", untraced)
	}
	st := summarize(tr.take())
	if st.count["store.getbatch"] == 0 || st.count["remote.getbatch"] == 0 || st.count["store.get"] != 0 {
		t.Fatalf("traced replay spans: %v", st.count)
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the driver %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// TestServeLoopCountsWrongRepliesAsFailed drives the closed loop against
// an in-process stand-in for experimentd's /v1/run: correct replies pass,
// and a corrupted hot or cold reply, a non-200 and a 429 all count as
// failed requests.
func TestServeLoopCountsWrongRepliesAsFailed(t *testing.T) {
	ref, err := session.Open(session.Config{Prog: "perfbench", Parallel: workers, Diag: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	seq := serveSequence(11, 0, 200)
	bad := map[string]int{ // body → status to answer with (0 = corrupt a 200)
		string(seq[0].body): 0, string(seq[1].body): 0,
		string(seq[2].body): http.StatusTooManyRequests, string(seq[3].body): http.StatusInternalServerError,
	}
	wantFailed := 4
	for _, r := range seq[4:] {
		if _, dup := bad[string(r.body)]; dup {
			wantFailed++ // a hot cell repeats later in the sequence
		}
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var u session.Unit
		if err := json.Unmarshal(body, &u); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		want, err := expected(ref, u)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if status, ok := bad[string(body)]; ok {
			if status != 0 {
				http.Error(w, "refused", status)
				return
			}
			want = bytes.Replace(want, []byte(`"SC":`), []byte(`"SC":1`), 1)
		}
		w.Write(want)
	}))
	defer srv.Close()
	e := &serveEnv{
		runURL: srv.URL + "/v1/run",
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers}},
		ref:    ref,
	}
	for _, u := range hotSet() {
		want, err := expected(ref, u)
		if err != nil {
			t.Fatal(err)
		}
		e.expect = append(e.expect, want)
	}
	res, _ := e.loop(seq, time.Hour, nil)
	if len(res) != len(seq) {
		t.Fatalf("loop completed %d of %d requests", len(res), len(seq))
	}
	if failed := e.verify(seq, res); failed != wantFailed {
		t.Fatalf("%d failed requests, want %d", failed, wantFailed)
	}
}
