package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/session"
	"repro/internal/session/sessiontest"
	"repro/internal/store"
)

// TestSessionFlagValidation drives the shared bad-combination table: the
// daemon inherits exactly the CLI binaries' flag surface and rejections.
func TestSessionFlagValidation(t *testing.T) { sessiontest.Run(t, run) }

func testDaemon(t *testing.T, cfg session.Config, queue, inflight int) (*daemon, *httptest.Server) {
	t.Helper()
	cfg.Prog = "experimentd"
	if cfg.Diag == nil {
		cfg.Diag = io.Discard
	}
	s, err := session.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	d := newDaemon(s, queue, inflight, 256)
	srv := httptest.NewServer(d)
	t.Cleanup(srv.Close)
	return d, srv
}

func postRun(t *testing.T, url string, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestRunMatchesSessionEncoding pins the byte-identity contract: the
// response body is exactly encoding/json of session.UnitResult plus the
// trailing newline — the same bytes `mutexsim -json` writes for the unit.
func TestRunMatchesSessionEncoding(t *testing.T) {
	_, srv := testDaemon(t, session.Config{CacheDir: t.TempDir()}, 8, 2)
	code, body := postRun(t, srv.URL, `{"algo":"mcs","n":8,"seed":1}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}

	ref, err := session.Open(session.Config{Prog: "ref", Diag: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	res, err := ref.RunUnit(session.Unit{Algo: "mcs", N: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(res); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("response bytes diverge from the CLI encoding:\n%q\nvs\n%q", body, want.String())
	}

	// A warm repeat answers the same bytes from the store.
	code, again := postRun(t, srv.URL, `{"algo":"mcs","n":8,"seed":1}`)
	if code != http.StatusOK || again != body {
		t.Fatalf("warm response diverged (status %d):\n%q\nvs\n%q", code, again, body)
	}
}

// TestConcurrentRequestsCoalesce is the serving form of the session's
// coalescing contract: N simultaneous requests for one unit produce N
// identical responses and exactly one simulation (misses=1 on /v1/stats).
func TestConcurrentRequestsCoalesce(t *testing.T) {
	_, srv := testDaemon(t, session.Config{CacheDir: t.TempDir()}, 64, 4)
	const workers = 12
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies []string
		start  = make(chan struct{})
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, body := postRun(t, srv.URL, `{"algo":"yang-anderson","n":16}`)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(bodies) != workers {
		t.Fatalf("%d responses, want %d", len(bodies), workers)
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("divergent responses:\n%q\nvs\n%q", b, bodies[0])
		}
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsReply
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Store.Misses != 1 {
		t.Fatalf("store misses = %d, want 1 (one leader simulates)", stats.Store.Misses)
	}
	if got := stats.Store.Hits + stats.Store.Misses; got != workers {
		t.Fatalf("hits+misses = %d, want %d", got, workers)
	}
	if stats.Served != workers {
		t.Fatalf("served = %d, want %d", stats.Served, workers)
	}
}

// TestAdmissionBackpressure pins the 429 path: with the admission queue
// held full, the next request is refused immediately with Retry-After —
// no waiting, no unbounded buffering.
func TestAdmissionBackpressure(t *testing.T) {
	d, srv := testDaemon(t, session.Config{CacheDir: t.TempDir()}, 2, 1)
	d.admit <- struct{}{} // occupy the whole queue deterministically
	d.admit <- struct{}{}
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(`{"algo":"bakery","n":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if d.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", d.rejected.Load())
	}
	<-d.admit
	<-d.admit
	if code, body := postRun(t, srv.URL, `{"algo":"bakery","n":4}`); code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", code, body)
	}
}

// TestRejectsBadUnits pins the 400 surface: malformed JSON, unknown
// fields, out-of-range coordinates, unknown names.
func TestRejectsBadUnits(t *testing.T) {
	_, srv := testDaemon(t, session.Config{}, 8, 2)
	for _, tc := range []struct {
		body string
		want string
	}{
		{`garbage`, "bad unit"},
		{`{"algo":"bakery","n":4,"bogus":1}`, "bad unit"},
		{`{"algo":"bakery","n":1}`, "n must be at least 2"},
		{`{"algo":"bakery","n":4,"horizon":-1}`, "horizon must be non-negative"},
		{`{"algo":"bakery","n":4,"sched":"nope"}`, `unknown scheduler "nope"`},
		{`{"algo":"nope","n":4}`, "unknown algorithm"},
		{fmt.Sprintf(`{"algo":"bakery","n":%d}`, 257), "exceeds -max-n"},
	} {
		code, body := postRun(t, srv.URL, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.body, code, body)
			continue
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: body %q does not name %q", tc.body, body, tc.want)
		}
	}
}

// TestMetricsSurface scrapes /v1/metrics and checks the exposition carries
// the daemon's partition and the store block under the experimentd prefix.
func TestMetricsSurface(t *testing.T) {
	_, srv := testDaemon(t, session.Config{CacheDir: t.TempDir()}, 8, 2)
	if code, body := postRun(t, srv.URL, `{"algo":"bakery","n":4}`); code != http.StatusOK {
		t.Fatalf("run failed: %d %s", code, body)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the exposition format", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, want := range []string{
		`experimentd_requests_total{endpoint="run"} 1`,
		`experimentd_served_total 1`,
		`experimentd_store_misses_total 1`,
		`experimentd_queue_limit 8`,
		`experimentd_request_duration_seconds_bucket{endpoint="run",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
}

// TestScrapesStayInProcess pins that scraping the daemon costs its fleet
// nothing: /v1/stats and /v1/metrics report the session's own counters and
// send no request to any stored replica, whether the fleet is mounted
// alone or behind a local -cache tier.
func TestScrapesStayInProcess(t *testing.T) {
	var fleetRequests atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := remote.NewServer(st)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fleetRequests.Add(1)
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			st.Close()
		})
		urls = append(urls, ts.URL)
	}
	fleet := strings.Join(urls, ",")
	for _, tc := range []struct {
		name string
		cfg  session.Config
	}{
		{"store", session.Config{StoreURL: fleet}},
		{"cache+store", session.Config{CacheDir: t.TempDir(), StoreURL: fleet}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := testDaemon(t, tc.cfg, 8, 2)
			if code, body := postRun(t, srv.URL, `{"algo":"bakery","n":4}`); code != http.StatusOK {
				t.Fatalf("run failed: %d %s", code, body)
			}
			before := fleetRequests.Load()
			for _, path := range []string{"/v1/stats", "/v1/metrics"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %s", path, resp.Status)
				}
			}
			if sent := fleetRequests.Load() - before; sent != 0 {
				t.Fatalf("a stats + metrics scrape sent %d requests to the fleet, want 0", sent)
			}
		})
	}
}

// TestServeDrain boots the real run() on an ephemeral port, drives one
// request through it, and shuts it down via the test hook — the signal
// path minus the signal.
func TestServeDrain(t *testing.T) {
	testShutdown = make(chan struct{})
	defer func() { testShutdown = nil }()

	out := &lockedBuffer{}
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-cache", t.TempDir()}, out) }()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no listening line published; output so far: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "experimentd: listening on "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.HasPrefix(addr, "http://") {
		t.Fatalf("scraped address %q is not a URL", addr)
	}
	if code, body := postRun(t, addr, `{"algo":"bakery","n":4}`); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	close(testShutdown)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not drain")
	}
	if !strings.Contains(out.String(), "experimentd: drained, served=1") {
		t.Fatalf("drain line missing from output: %q", out.String())
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer: the serving run writes
// its stdout lines while the test polls for them.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
