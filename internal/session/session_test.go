package session

import (
	"io"
	"strings"
	"sync"
	"testing"
)

func openTest(t *testing.T, cfg Config) *Session {
	t.Helper()
	if cfg.Diag == nil {
		cfg.Diag = io.Discard
	}
	if cfg.Prog == "" {
		cfg.Prog = "sessiontest"
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRunUnitCoalesces is the session's concurrency contract: N goroutines
// requesting one unit cost exactly one simulation — one miss (the leader's
// execution) and N-1 hits (followers re-reading the leader's write) — in
// every interleaving, because a follower that arrives after the flight
// closed still finds the key stored. It holds on a durable store and on
// the memory-only store a session mounts without store flags.
func TestRunUnitCoalesces(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cache", Config{CacheDir: t.TempDir()}},
		{"no-flags", Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, tc.cfg)
			const workers = 16
			u := Unit{Algo: "yang-anderson", N: 16}

			var (
				start   = make(chan struct{})
				wg      sync.WaitGroup
				mu      sync.Mutex
				results []UnitResult
			)
			for range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					res, err := s.RunUnit(u)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					results = append(results, res)
					mu.Unlock()
				}()
			}
			close(start)
			wg.Wait()

			if len(results) != workers {
				t.Fatalf("%d results, want %d", len(results), workers)
			}
			for _, r := range results[1:] {
				if r != results[0] {
					t.Fatalf("divergent results: %+v vs %+v", r, results[0])
				}
			}
			st := s.Store().Stats()
			gets := st.Hits + st.Misses
			if gets != workers {
				t.Fatalf("hits+misses = %d, want %d (every request must read the store exactly once)", gets, workers)
			}
			if st.Misses != 1 {
				t.Fatalf("misses = %d, want 1 (one leader simulates, everyone else hits)", st.Misses)
			}
			if st.Hits != workers-1 {
				t.Fatalf("hits = %d, want %d", st.Hits, workers-1)
			}
		})
	}
}

// TestOpenValidation pins the canonical flag-combination errors every
// binary inherits (the binaries assert the same table through
// sessiontest.Run — this is the source of the exact text).
func TestOpenValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"merge-without-store", Config{Merge: "d1"}, "-merge requires -cache or -store"},
		{"shard-without-store", Config{Shard: "1/2"}, "-shard requires -cache or -store"},
		{"capture-without-store", Config{Capture: true}, "-capture requires -cache or -store"},
		{"merge-and-shard", Config{CacheDir: t.TempDir(), Merge: "d1", Shard: "1/2"}, "-merge and -shard are mutually exclusive (merge replays the full run)"},
		{"bad-shard", Config{CacheDir: t.TempDir(), Shard: "0"}, `store: bad shard "0": want i/m, e.g. 1/3`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Diag = io.Discard
			s, err := Open(tc.cfg)
			if err == nil {
				s.Close()
				t.Fatalf("config %+v accepted; want %q", tc.cfg, tc.wantErr)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error = %q, want %q", err, tc.wantErr)
			}
		})
	}
}

// TestUnitValidation pins the request-shape errors experimentd surfaces as
// 400s and the CLIs as flag errors.
func TestUnitValidation(t *testing.T) {
	if _, err := (Unit{Algo: "bakery", N: 1}).Job(); err == nil || !strings.Contains(err.Error(), "n must be at least 2") {
		t.Fatalf("n=1 error = %v", err)
	}
	if _, err := (Unit{Algo: "bakery", N: 4, Horizon: -1}).Job(); err == nil || !strings.Contains(err.Error(), "horizon must be non-negative") {
		t.Fatalf("horizon=-1 error = %v", err)
	}
	if _, err := (Unit{Algo: "bakery", N: 4, Sched: "nope"}).Job(); err == nil || !strings.Contains(err.Error(), `unknown scheduler "nope"`) {
		t.Fatalf("bad sched error = %v", err)
	}
	j, err := (Unit{Algo: "bakery", N: 4}).Job()
	if err != nil {
		t.Fatal(err)
	}
	if j.Sched.Kind != "round-robin" {
		t.Fatalf("empty sched resolved to %q, want round-robin", j.Sched.Kind)
	}
}

// TestSeedOnlyKeysRandomScheduler pins the coalescing consequence of
// folding the seed into the spec: two units differing only in seed share
// one cache key under a deterministic scheduler, and differ under random.
func TestSeedOnlyKeysRandomScheduler(t *testing.T) {
	j1, _ := Unit{Algo: "bakery", N: 4, Seed: 1}.Job()
	j2, _ := Unit{Algo: "bakery", N: 4, Seed: 2}.Job()
	if j1.CacheKey() != j2.CacheKey() {
		t.Fatal("round-robin units with different seeds should share a key")
	}
	r1, _ := Unit{Algo: "bakery", N: 4, Sched: "random", Seed: 1}.Job()
	r2, _ := Unit{Algo: "bakery", N: 4, Sched: "random", Seed: 2}.Job()
	if r1.CacheKey() == r2.CacheKey() {
		t.Fatal("random units with different seeds must not share a key")
	}
}

// TestCloseIdempotent pins the teardown contract binaries rely on when they
// both defer Close and call it explicitly.
func TestCloseIdempotent(t *testing.T) {
	s := openTest(t, Config{CacheDir: t.TempDir()})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
