// Command loadgen drives a serving experimentd with a reproducible open
// workload and reports the latency and cache-efficiency picture: burst-
// modulated Poisson arrivals (a two-state calm/burst process — the shape
// of a CI fleet's request stream, long quiet stretches punctuated by
// thundering herds) over a Zipf-skewed unit population (a few hot units
// take most of the traffic, the tail stays cold — exactly the skew a
// result cache exists for).
//
// Usage:
//
//	loadgen -target http://127.0.0.1:9300 -requests 500 -rate 200
//	loadgen -target URL -requests 1000 -rate 400 -burst 8 -skew 1.2 -json
//
// The unit population, the arrival times, and the request order are all
// derived from -seed, so two runs against equivalent servers issue the
// identical request sequence; only the measured latencies differ. Arrivals
// are open-loop: a slow server does not slow the generator down, it just
// accumulates in-flight requests — which is what makes the admission
// bound on the other side observable (429s are counted, waited out per
// Retry-After, and retried).
//
// The report (stdout, one JSON object with -json, aligned text otherwise)
// carries request percentiles (p50/p90/p99), the error and rejection
// counts, and the server-side cache hit rate and coalescing count diffed
// from /v1/stats before and after the run. CI's experimentd smoke runs it
// against a routed two-stored fleet and checks that no request failed or
// was refused.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// unit mirrors session.Unit's wire form; loadgen speaks only the HTTP
// protocol, like any external client would.
type unit struct {
	Algo  string `json:"algo"`
	N     int    `json:"n"`
	Sched string `json:"sched"`
	Seed  int64  `json:"seed"`
}

// serverStats mirrors the /v1/stats reply fields the report diffs.
type serverStats struct {
	Store struct {
		Hits, Misses int64
	} `json:"store"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
	Served    int64 `json:"served"`
}

// report is the run's outcome, the object -json prints.
type report struct {
	Requests  int     `json:"requests"`
	Units     int     `json:"units"`
	RatePerS  float64 `json:"rate_per_s"`
	Burst     float64 `json:"burst"`
	Skew      float64 `json:"skew"`
	OK        int64   `json:"ok"`
	Errors    int64   `json:"errors"`
	Rejected  int64   `json:"rejected429"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	WallS     float64 `json:"wall_s"`
	HitRate   float64 `json:"hit_rate"`
	Coalesced int64   `json:"coalesced"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		target   = fs.String("target", "", "experimentd base URL (required), e.g. http://127.0.0.1:9300")
		requests = fs.Int("requests", 500, "total requests to issue")
		rate     = fs.Float64("rate", 200, "mean arrival rate in requests/second (calm state)")
		burst    = fs.Float64("burst", 6, "burst multiplier: arrival rate during the burst state")
		pBurst   = fs.Float64("p-burst", 0.15, "per-arrival probability of entering a burst (and of leaving one)")
		skew     = fs.Float64("skew", 1.1, "Zipf exponent over the unit population (>1; larger = hotter hot keys)")
		algosCSV = fs.String("algos", "yang-anderson,bakery,peterson,tas,mcs", "comma-separated algorithm population")
		nsCSV    = fs.String("ns", "4,8,16", "comma-separated process counts")
		seed     = fs.Int64("seed", 20060723, "seed for the population, the skew, and the arrival process")
		asJSON   = fs.Bool("json", false, "emit the report as one JSON object")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *target == "" {
		fs.Usage()
		return fmt.Errorf("-target is required")
	}
	if *requests < 1 || *rate <= 0 || *burst < 1 || *skew <= 1 {
		return fmt.Errorf("need -requests >= 1, -rate > 0, -burst >= 1, -skew > 1")
	}

	// The unit population: every (algo, n) cell under the canonical
	// scheduler. Zipf over the shuffled population gives hot cells that are
	// a seed-stable but arbitrary subset — not always the cheapest ones.
	var units []unit
	for _, algo := range splitCSV(*algosCSV) {
		for _, ns := range splitCSV(*nsCSV) {
			n, err := strconv.Atoi(ns)
			if err != nil || n < 2 {
				return fmt.Errorf("bad process count %q", ns)
			}
			units = append(units, unit{Algo: algo, N: n, Sched: "round-robin", Seed: 1})
		}
	}
	if len(units) == 0 {
		return fmt.Errorf("empty unit population")
	}
	rng := rand.New(rand.NewSource(*seed))
	rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	zipf := rand.NewZipf(rng, *skew, 1, uint64(len(units)-1))

	// Pre-draw the whole request sequence — which unit, and the arrival
	// offset — so the workload is a pure function of the flags and the
	// measurement loop does no RNG work.
	type arrival struct {
		u  unit
		at time.Duration
	}
	plan := make([]arrival, *requests)
	var clock time.Duration
	bursting := false
	for i := range plan {
		if rng.Float64() < *pBurst {
			bursting = !bursting
		}
		lambda := *rate
		if bursting {
			lambda *= *burst
		}
		clock += time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
		plan[i] = arrival{u: units[zipf.Uint64()], at: clock}
	}

	before, err := fetchStats(*target)
	if err != nil {
		return fmt.Errorf("target unreachable: %w", err)
	}

	// Open-loop dispatch: every request fires at its planned offset no
	// matter how the previous ones are doing.
	var (
		wg                   sync.WaitGroup
		mu                   sync.Mutex
		latencies            []time.Duration
		okN, errN, rejectedN int64
	)
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now() //repro:wallclock the measurement clock; latencies never feed canonical repro output
	for _, a := range plan {
		time.Sleep(a.at - time.Since(start)) //repro:wallclock open-loop pacing against the measurement clock
		wg.Add(1)
		go func(u unit) {
			defer wg.Done()
			lat, status, err := post(client, *target, u)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				errN++
			case status == http.StatusTooManyRequests:
				rejectedN++
			case status == http.StatusOK:
				okN++
				latencies = append(latencies, lat)
			default:
				errN++
			}
		}(a.u)
	}
	wg.Wait()
	wall := time.Since(start) //repro:wallclock total run duration for the report

	after, err := fetchStats(*target)
	if err != nil {
		return fmt.Errorf("target lost after run: %w", err)
	}

	rep := report{
		Requests: *requests, Units: len(units), RatePerS: *rate, Burst: *burst, Skew: *skew,
		OK: okN, Errors: errN, Rejected: rejectedN,
		WallS:     wall.Seconds(),
		Coalesced: after.Coalesced - before.Coalesced,
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		rep.P50Ms = ms(percentile(latencies, 0.50))
		rep.P90Ms = ms(percentile(latencies, 0.90))
		rep.P99Ms = ms(percentile(latencies, 0.99))
		rep.MeanMs = ms(sum / time.Duration(len(latencies)))
	}
	hits := after.Store.Hits - before.Store.Hits
	misses := after.Store.Misses - before.Store.Misses
	if gets := hits + misses; gets > 0 {
		rep.HitRate = float64(hits) / float64(gets)
	}

	if *asJSON {
		enc := json.NewEncoder(w)
		return enc.Encode(rep)
	}
	fmt.Fprintf(w, "requests   %d over %d units (%.0f/s calm, ×%.0f burst, zipf %.2f)\n",
		rep.Requests, rep.Units, rep.RatePerS, rep.Burst, rep.Skew)
	fmt.Fprintf(w, "outcome    ok=%d rejected429=%d errors=%d in %.2fs\n", rep.OK, rep.Rejected, rep.Errors, rep.WallS)
	fmt.Fprintf(w, "latency    p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms\n", rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MeanMs)
	fmt.Fprintf(w, "cache      hitRate=%.3f coalesced=%d\n", rep.HitRate, rep.Coalesced)
	return nil
}

// post issues one unit request, returning its latency and status.
func post(client *http.Client, target string, u unit) (time.Duration, int, error) {
	body, err := json.Marshal(u)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now() //repro:wallclock per-request latency measurement
	resp, err := client.Post(target+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	lat := time.Since(start) //repro:wallclock per-request latency measurement
	return lat, resp.StatusCode, err
}

// fetchStats reads the server's /v1/stats counters.
func fetchStats(target string) (serverStats, error) {
	var s serverStats
	resp, err := http.Get(target + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// percentile reads the p-quantile off sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
