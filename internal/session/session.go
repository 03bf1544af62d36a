// Package session is the composable core every experiment-facing binary
// and service is assembled from: one type owning the full lifecycle that
// cmd/experiments, cmd/tournament, cmd/observe, cmd/lowerbound,
// cmd/mutexsim and cmd/experimentd used to hand-build in their main
// functions — check the flag combinations, mount the result store (local
// directory, fleet, tiered, or memory-only; see remote.MountFleet), fold
// in -merge's shard stores, wrap the cached execution engine, apply the
// shard assignment, enable trace capture, start the profiling hooks, and
// on Close flush everything and print the canonical end-of-run stats
// lines.
//
// The split is engine vs serving: everything below (machine, runner,
// store, remote) stays a library of pure values, and a Session is the one
// stateful object a process holds. A batch CLI opens one Session, runs its
// fan-outs on Session.Engine, and closes it. A long-running service
// (cmd/experimentd) opens one Session at startup and serves request-scoped
// work through Session.RunUnit, which is safe for any number of concurrent
// callers: the store is goroutine-safe, the engine's configuration is
// immutable, and identical in-flight units are coalesced so N simultaneous
// requests for one unit cost exactly one simulation. Coalescing here, above
// the store, is what spares the store layers below any of their own.
package session

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/prof"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/store"
)

// Config is everything a Session needs, as plain values — a process that
// wants the stack without a flag set (tests, examples, embedded services)
// fills it directly; CLIs bind it with FlagConfig.
type Config struct {
	// Prog prefixes every diagnostic line ("experiments: cache …").
	Prog string
	// CacheDir is the local result-store directory ("" = none). With
	// neither CacheDir nor StoreURL the session mounts a memory-only store.
	CacheDir string
	// StoreURL is the remote store URL list ("" = none); see remote.MountFleet.
	StoreURL string
	// Shard is the "i/m" prime-shard assignment ("" = normal run).
	Shard string
	// Merge is the comma-separated shard directories to fold in first.
	Merge string
	// Capture persists executed step traces into the store's blob tier.
	Capture bool
	// Parallel is the engine worker-pool size (0 = GOMAXPROCS).
	Parallel int
	// Prof holds the registered profiling flags (nil = no profiling).
	Prof *prof.Flags
	// Diag receives diagnostics and stats lines (nil = os.Stderr). The
	// data stream is never written here, so stdout stays byte-identical
	// across cold, warm, and sharded runs.
	Diag io.Writer
}

// Session is one mounted instance of the full stack. Open builds it,
// Close tears it down; in between it is safe for concurrent use.
type Session struct {
	cfg            Config
	diag           io.Writer
	cli            *remote.CLIStore
	eng            *runner.CachedEngine
	shardI, shardM int // 0, 0 when -shard was not given
	stopProf       func()

	mu       sync.Mutex
	inflight map[string]*flight
	closed   bool

	coalesced atomic.Int64
}

// flight is one in-flight unit execution other requests coalesce onto.
type flight struct {
	done chan struct{}
	err  error
}

// Open mounts the stack the config describes: the flag combinations are
// checked first, before anything is mounted; then profiling starts (so the
// profile covers the mount), the store tiers mount and fold in -merge's
// shard stores, and the cached engine wraps them with shard and capture
// applied. Every error path tears down what was already built.
func Open(cfg Config) (*Session, error) {
	shardI, shardM, err := cfg.checkFlags()
	if err != nil {
		return nil, err
	}
	diag := cfg.Diag
	if diag == nil {
		diag = os.Stderr
	}
	stopProf := func() {}
	if cfg.Prof != nil {
		if stopProf, err = cfg.Prof.Start(diag); err != nil {
			return nil, err
		}
	}
	st, cls, ring, err := remote.MountFleet(cfg.CacheDir, cfg.StoreURL)
	if err != nil {
		stopProf()
		return nil, err
	}
	cli := &remote.CLIStore{Store: st, Clients: cls, Ring: ring}
	if cfg.Merge != "" {
		dirs := remote.SplitList(cfg.Merge)
		added, err := st.Merge(dirs...)
		if err != nil {
			cli.Close() //repro:degrade error-path teardown; the merge error below is the one to surface
			stopProf()
			return nil, err
		}
		fmt.Fprintf(diag, "%s: merged %d entries from %d store(s)\n", cfg.Prog, added, len(dirs)) //repro:degrade diagnostic line on stderr
	}
	eng := runner.NewCached(runner.New(cfg.Parallel), st).
		WithShard(shardI, shardM).
		WithCapture(cfg.Capture)
	return &Session{
		cfg:      cfg,
		diag:     diag,
		cli:      cli,
		eng:      eng,
		shardI:   shardI,
		shardM:   shardM,
		stopProf: stopProf,
		inflight: make(map[string]*flight),
	}, nil
}

// checkFlags refuses -merge, -shard and -capture without -cache or -store
// (a shard pass and a capture write for a later process to read) and
// -merge beside -shard, and parses -shard i/m into a 0-based index and a
// count (0, 0 when it was not given).
func (cfg Config) checkFlags() (shardI, shardM int, err error) {
	stored := cfg.CacheDir != "" || cfg.StoreURL != ""
	switch {
	case cfg.Merge != "" && !stored:
		return 0, 0, errors.New("-merge requires -cache or -store")
	case cfg.Merge != "" && cfg.Shard != "":
		return 0, 0, errors.New("-merge and -shard are mutually exclusive (merge replays the full run)")
	case cfg.Shard != "" && !stored:
		return 0, 0, errors.New("-shard requires -cache or -store")
	case cfg.Capture && !stored:
		return 0, 0, errors.New("-capture requires -cache or -store")
	case cfg.Shard == "":
		return 0, 0, nil
	}
	return store.ParseShard(cfg.Shard)
}

// Engine returns the session's cached execution engine — the handle batch
// drivers fan out through. Its configuration (store, shard, capture) is
// immutable; derived copies (WithCapture, WithShard) share the store.
func (s *Session) Engine() *runner.CachedEngine { return s.eng }

// Store returns the mounted result store: memory-only when neither
// CacheDir nor StoreURL was given.
func (s *Session) Store() *store.Store { return s.cli.Store }

// Priming reports whether this session is a prime-only shard pass.
func (s *Session) Priming() bool { return s.eng.Priming() }

// Shard returns the prime-shard assignment (0, 0 for a normal run).
func (s *Session) Shard() (i, m int) { return s.shardI, s.shardM }

// Coalesced returns how many RunJob calls were served by joining another
// request's in-flight execution instead of starting their own.
func (s *Session) Coalesced() int64 { return s.coalesced.Load() }

// RunJob executes one simulation unit through the session, request-scoped:
// hits are served from the store, misses execute on the calling goroutine,
// and identical in-flight units coalesce — the N-1 late arrivals wait for
// the leader and then read its stored result (one miss, N-1 hits). Errors
// are never cached and never shared: a failed leader leaves followers to
// try (and surface the failure) themselves.
func (s *Session) RunJob(j runner.Job) (cost.Report, error) {
	k := j.CacheKey()
	for {
		s.mu.Lock()
		if f, ok := s.inflight[k]; ok {
			s.mu.Unlock()
			s.coalesced.Add(1)
			<-f.done
			if f.err != nil {
				// The leader failed; this request runs the unit itself so
				// every caller gets a first-hand verdict.
				continue
			}
			return s.eng.RunOne(j) // the leader's write makes this a hit
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[k] = f
		s.mu.Unlock()
		rep, err := s.eng.RunOne(j)
		f.err = err
		s.mu.Lock()
		delete(s.inflight, k)
		s.mu.Unlock()
		close(f.done)
		return rep, err
	}
}

// Close flushes and tears the stack down in the canonical order: the
// end-of-run stats lines (the cache-traffic line CI greps `misses=0` off,
// one line per fleet replica, the stale-ring warning), then the store, then
// the profiling hooks. Idempotent — later calls return nil, so binaries can
// both defer it and call it explicitly before exiting.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cli.PrintStats(s.diag, s.cfg.Prog)
	err := s.cli.Close()
	s.stopProf()
	return err
}
