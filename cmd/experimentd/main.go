// Command experimentd serves the experiment engine as an always-on HTTP
// service: clients POST a simulation unit (algorithm, process count,
// scheduler, seed, horizon) and get back the canonical unit result — the
// exact bytes `mutexsim -json` prints for the same unit, by construction:
// both marshal session.UnitResult through encoding/json.
//
// Usage:
//
//	experimentd -cache DIR                        # serve on 127.0.0.1:9300
//	experimentd -store URL1,URL2 -addr :9300      # fleet-backed, reachable
//	experimentd -cache DIR -capture -queue 128    # capture traces, deeper queue
//
//	curl -d '{"algo":"mcs","n":8}' http://127.0.0.1:9300/v1/run
//
// It is one session.Session behind a bounded front door:
//
//   - Admission is bounded: at most -queue requests are in the house
//     (waiting or executing) and at most -inflight execute at once; a
//     request beyond the queue depth is refused immediately with 429 and a
//     Retry-After header, so overload degrades to fast refusals instead of
//     unbounded memory growth. //repro:degrade
//   - Identical in-flight units coalesce: N simultaneous requests for one
//     unit cost exactly one simulation (the session's RunJob discipline),
//     and a warm unit costs zero — served straight from the store.
//   - GET /v1/metrics is the same Prometheus text surface cmd/stored
//     serves, under the experimentd_* prefix; GET /v1/stats is the JSON
//     form workload drivers (cmd/loadgen) diff for hit rates.
//
// The first stdout line is "experimentd: listening on http://ADDR" (with
// the resolved port when -addr ends in :0), so scripts can scrape the
// address. SIGINT/SIGTERM drain in-flight requests, close the session
// (flushing the store and printing the canonical cache-stats line), then
// exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/remote"
	"repro/internal/session"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experimentd:", err)
		os.Exit(1)
	}
}

// testShutdown, when non-nil, substitutes for process signals so tests can
// stop a serving run.
var testShutdown chan struct{}

// dmetricEndpoints partitions the daemon's latency histograms; order is
// the exposition order.
var dmetricEndpoints = [...]string{"run", "stats", "metrics", "other"}

// dmetricEndpointIndex classifies a request path into dmetricEndpoints.
func dmetricEndpointIndex(path string) int {
	switch path {
	case "/v1/run":
		return 0
	case "/v1/stats":
		return 1
	case "/v1/metrics":
		return 2
	default:
		return 3
	}
}

// daemon is the HTTP face of one session: the handler state cmd/experimentd
// serves and its tests drive directly.
type daemon struct {
	s    *session.Session
	mux  *http.ServeMux
	lat  *remote.LatencySet
	maxN int

	// admit bounds the requests in the house (waiting + executing);
	// exec bounds the ones simulating. Both are token channels so the
	// counters are exact under racing requests.
	admit chan struct{}
	exec  chan struct{}

	rejected atomic.Int64 // 429s issued
	served   atomic.Int64 // /v1/run responses written
}

// newDaemon assembles the handler around an open session.
func newDaemon(s *session.Session, queue, inflight, maxN int) *daemon {
	d := &daemon{
		s:     s,
		mux:   http.NewServeMux(),
		lat:   remote.NewLatencySet("experimentd", dmetricEndpoints[:]),
		maxN:  maxN,
		admit: make(chan struct{}, queue),
		exec:  make(chan struct{}, inflight),
	}
	d.mux.HandleFunc("POST /v1/run", d.handleRun)
	d.mux.HandleFunc("GET /v1/stats", d.handleStats)
	d.mux.HandleFunc("GET /v1/metrics", d.handleMetrics)
	return d
}

// ServeHTTP dispatches, timing every request into its endpoint's latency
// histogram — the same discipline remote.Server applies.
func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now() //repro:wallclock request latency feeds the metrics surface only, never canonical output
	d.mux.ServeHTTP(w, r)
	d.lat.Observe(dmetricEndpointIndex(r.URL.Path), time.Since(start)) //repro:wallclock request latency feeds the metrics surface only, never canonical output
}

// handleRun serves POST /v1/run: admit (or refuse), take an execution
// slot, run the unit through the session, answer with the canonical
// one-line JSON result.
func (d *daemon) handleRun(w http.ResponseWriter, r *http.Request) {
	select {
	case d.admit <- struct{}{}:
		defer func() { <-d.admit }()
	default:
		// Full house: refuse now, cheaply, instead of queueing without
		// bound. The client backs off and retries.
		d.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "experimentd: admission queue full", http.StatusTooManyRequests)
		return
	}

	var u session.Unit
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&u); err != nil {
		http.Error(w, "experimentd: bad unit: "+err.Error(), http.StatusBadRequest)
		return
	}
	if u.N > d.maxN {
		http.Error(w, fmt.Sprintf("experimentd: n=%d exceeds -max-n %d", u.N, d.maxN), http.StatusBadRequest)
		return
	}

	d.exec <- struct{}{}
	res, err := d.s.RunUnit(u)
	<-d.exec
	if err != nil {
		// Every unit error is deterministic — a malformed shape, an unknown
		// name, an algorithm the checker rejects — a property of the request,
		// not of the server, so the whole surface is a 400.
		http.Error(w, "experimentd: "+err.Error(), http.StatusBadRequest)
		return
	}
	d.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(res); err != nil {
		_ = err //repro:degrade a response-write failure means the client hung up
	}
}

// statsReply is the JSON stats surface workload drivers diff: the store's
// counters plus the daemon's own.
type statsReply struct {
	Store     store.Stats `json:"store"`
	Coalesced int64       `json:"coalesced"`
	Rejected  int64       `json:"rejected"`
	Served    int64       `json:"served"`
}

// handleStats serves GET /v1/stats.
func (d *daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := statsReply{
		Store:     d.s.Store().Stats(),
		Coalesced: d.s.Coalesced(),
		Rejected:  d.rejected.Load(),
		Served:    d.served.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(rep); err != nil {
		_ = err //repro:degrade a response-write failure means the client hung up
	}
}

// handleMetrics serves GET /v1/metrics — the stored exposition surface,
// under the daemon's prefix.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := remote.StartExposition(w)
	defer e.Flush() //repro:degrade a response-write failure means the scraper hung up
	d.lat.Write(e)
	e.Gauge("experimentd_queue_depth", "Admitted requests in the house (waiting or executing).", int64(len(d.admit)))
	e.Gauge("experimentd_queue_limit", "Admission bound (-queue).", int64(cap(d.admit)))
	e.Gauge("experimentd_inflight", "Units executing right now.", int64(len(d.exec)))
	e.Counter("experimentd_rejected_total", "Requests refused with 429 at admission.", d.rejected.Load())
	e.Counter("experimentd_served_total", "Unit results answered.", d.served.Load())
	e.Counter("experimentd_coalesced_total", "Requests served by joining an identical in-flight unit.", d.s.Coalesced())
	e.StoreStats("experimentd", d.s.Store().Stats())
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experimentd", flag.ContinueOnError)
	fs.SetOutput(os.Stderr) // diagnostics and usage must not corrupt the data stream on w
	var (
		addr     = fs.String("addr", "127.0.0.1:9300", "listen address")
		queue    = fs.Int("queue", 64, "admission bound: requests in the house (waiting + executing) before 429")
		inflight = fs.Int("inflight", 0, "units executing at once; 0 = GOMAXPROCS")
		maxN     = fs.Int("max-n", 256, "largest accepted process count (bounds one request's work)")
	)
	sf := session.FlagConfig(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *queue < 1 {
		return fmt.Errorf("-queue must be at least 1 (got %d)", *queue)
	}
	if *inflight == 0 {
		*inflight = runtime.GOMAXPROCS(0)
	}
	if *inflight < 1 {
		return fmt.Errorf("-inflight must be at least 1 (got %d)", *inflight)
	}
	if *maxN < 2 {
		return fmt.Errorf("-max-n must be at least 2 (got %d)", *maxN)
	}
	cfg := sf.Config("experimentd")
	s, err := session.Open(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if s.Priming() {
		// The canonical validation accepted the shard spec; the refusal here
		// is the daemon's own: a prime pass is a batch mode, and a serving
		// process that silently dropped other shards' units would look like
		// a cache that forgets.
		s.Close()
		return fmt.Errorf("-shard is a batch priming mode; a serving daemon cannot shard")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "experimentd: listening on http://%s\n", ln.Addr())
	if cfg.CacheDir == "" && cfg.StoreURL == "" {
		fmt.Fprintf(w, "experimentd: memory-only store of up to %d results, kept until exit (pass -cache and/or -store to keep them)\n", store.DefaultLRUEntries)
	} else {
		fmt.Fprintf(w, "experimentd: store mounted (%d entries)\n", s.Store().Len())
	}

	d := newDaemon(s, *queue, *inflight, *maxN)
	srv := &http.Server{Handler: d, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	case <-testShutdown:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Fprintf(w, "experimentd: drained, served=%d coalesced=%d rejected=%d\n",
		d.served.Load(), d.s.Coalesced(), d.rejected.Load())
	return s.Close()
}
