// Command stored serves one authoritative content-addressed result store
// over HTTP, so any number of worker processes — CI shards, tournament
// searchers, laptop runs — share a single cache instead of priming private
// directories and merging after the fact. The protocol is documented in
// internal/remote; clients mount the store with the `-store URL` flag of
// cmd/experiments and cmd/tournament.
//
// Usage:
//
//	stored -dir /var/result-store                  # serve on 127.0.0.1:9200
//	stored -dir DIR -addr 0.0.0.0:9200             # fleet-reachable
//	stored -dir DIR -name a -ring 'a=URL,b=URL*2' -epoch 1
//	                                               # serve as ring member "a"
//	                                               # of a weighted fleet
//	stored -rebalance -ring 'a=U1,b=U2,c=U3' -epoch 2
//	                                               # re-place a live fleet:
//	                                               # install the ring on every
//	                                               # member, then drain each
//	stored -drain DIR -name a -ring SPEC -epoch N  # offline: push DIR's results
//	                                               # and traces that a no longer
//	                                               # owns to their owners, then
//	                                               # exit
//	stored -compact DIR                            # maintenance: rewrite the
//	                                               # result and blob logs
//	                                               # dropping dead records,
//	                                               # then exit
//
// A store directory holds two logs, the results and, under blobs/, the
// captured traces; every mode opens both. Lifecycle: -max-bytes and
// -max-age bound each log separately (oldest records are evicted first;
// an evicted result or trace only ever costs its re-execution), and both
// logs are compacted whenever either's superseded+dead bytes cross
// -compact-frac of that log. Both run on the -maintain cadence while
// serving.
//
// The first stdout line is "stored: listening on http://ADDR" (with the
// resolved port when -addr ends in :0), so scripts can scrape the address.
// SIGINT/SIGTERM drain the listener and close the store cleanly. A running
// server can also be compacted in place via POST /v1/compact, and joins
// ring-based placement via GET/POST /v1/ring and POST /v1/drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/remote"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stored:", err)
		os.Exit(1)
	}
}

// testShutdown, when non-nil, substitutes for process signals so tests can
// stop a serving run.
var testShutdown chan struct{}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("stored", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:9200", "listen address")
		dir        = fs.String("dir", "", "store directory (created if missing)")
		lruEntries = fs.Int("lru", 0, "LRU tier capacity in entries; 0 = default")
		compactDir = fs.String("compact", "", "maintenance mode: compact the result and blob logs in DIR and exit")

		name     = fs.String("name", "", "this replica's ring member name (hashing identity; required for -drain and to serve drains)")
		ringSpec = fs.String("ring", "", "placement ring spec: name=url[*weight],… (see store.ParseRingSpec)")
		epoch    = fs.Uint64("epoch", 0, "ring epoch for -ring (a resize must use a larger epoch than the fleet's current one)")

		drainDir  = fs.String("drain", "", "offline migration: push every result and trace in DIR that -name no longer owns under -ring to its owner, then exit")
		rebalance = fs.Bool("rebalance", false, "live migration: install -ring on every member, drain each, then exit")

		maxBytes    = fs.Int64("max-bytes", 0, "evict oldest records when a log's live bytes exceed this many; the result log and the blob log are each bounded by it separately; 0 = unbounded")
		maxAge      = fs.Duration("max-age", 0, "evict results and traces older than this; 0 = keep forever")
		compactFrac = fs.Float64("compact-frac", 0.5, "auto-compact both logs when either's reclaimable bytes exceed this fraction of that log")
		maintain    = fs.Duration("maintain", time.Minute, "lifecycle cadence: how often eviction and auto-compaction run while serving")
	)
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

	var ring *store.Ring
	if *ringSpec != "" {
		var err error
		if ring, err = store.ParseRingSpec(*epoch, *ringSpec); err != nil {
			return err
		}
		if *name != "" && ring.Index(*name) == -1 && *drainDir == "" {
			return fmt.Errorf("-name %q is not a member of -ring %s (only a decommissioning -drain may be outside it)", *name, ring)
		}
	}

	if *rebalance {
		if ring == nil {
			return fmt.Errorf("-rebalance requires -ring (and the -epoch the fleet should move to)")
		}
		if err := remote.Rebalance(ring, w); err != nil {
			return err
		}
		fmt.Fprintf(w, "stored: rebalanced fleet onto %s\n", ring)
		return nil
	}

	if *drainDir != "" {
		if ring == nil || *name == "" {
			return fmt.Errorf("-drain requires -ring and -name (whose keys stay put)")
		}
		if *dir != "" {
			return fmt.Errorf("-drain is a maintenance mode; it does not combine with -dir")
		}
		st, _, _, err := openStore(*drainDir, *lruEntries)
		if err != nil {
			return err
		}
		defer st.Close()
		dr, err := remote.DrainStore(st, ring, *name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "stored: drained %s as %q: moved=%d deleted=%d kept=%d\n",
			*drainDir, *name, dr.Moved, dr.Deleted, dr.Kept)
		return nil
	}

	if *compactDir != "" {
		if *dir != "" {
			return fmt.Errorf("-compact is a maintenance mode; it does not combine with -dir")
		}
		st, _, _, err := openStore(*compactDir, *lruEntries)
		if err != nil {
			return err
		}
		defer st.Close()
		// The server's compaction, as /v1/compact runs it: both logs.
		kept, dropped, err := remote.NewServer(st).CompactStore()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "stored: compacted %s: kept=%d dropped=%d\n", *compactDir, kept, dropped)
		return nil
	}

	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-dir is required (or -compact/-drain DIR, or -rebalance, for maintenance)")
	}
	st, results, blobs, err := openStore(*dir, *lruEntries)
	if err != nil {
		return err
	}
	defer st.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stored: listening on http://%s\n", ln.Addr())
	fmt.Fprintf(w, "stored: serving %s (%d entries)\n", *dir, st.Len())

	handler := remote.NewServer(st)
	if *name != "" {
		handler.SetSelf(*name)
	}
	if ring != nil {
		if err := handler.InstallRing(ring); err != nil {
			return err
		}
		fmt.Fprintf(w, "stored: placement %s\n", ring)
	}

	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Lifecycle loop: age/size eviction and auto-compaction of both logs on
	// a cadence. Eviction only de-indexes (an evicted record costs its
	// re-execution, nothing more); compaction reclaims the dead bytes
	// eviction and overwrites leave behind, through the server's locked
	// compact so it cannot race a put's check-then-write.
	logs := []struct {
		name string
		log  *store.NDJSON
	}{{"results", results}, {"traces", blobs.Log()}}
	maintainDone := make(chan struct{})
	go func() {
		defer close(maintainDone)
		ticker := time.NewTicker(*maintain)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-testShutdown:
				return
			case <-ticker.C:
			}
			compact := false
			for _, l := range logs {
				if *maxAge > 0 {
					if n := l.log.EvictOlderThan(time.Now().Add(-*maxAge)); n > 0 {
						fmt.Fprintf(w, "stored: evicted %d %s older than %s\n", n, l.name, *maxAge)
					}
				}
				if *maxBytes > 0 {
					if n := l.log.EvictToSize(*maxBytes); n > 0 {
						fmt.Fprintf(w, "stored: evicted %d %s to fit %d bytes\n", n, l.name, *maxBytes)
					}
				}
				if size := l.log.SizeBytes(); size > 0 && *compactFrac > 0 {
					if frac := float64(l.log.DeadBytes()) / float64(size); frac > *compactFrac {
						fmt.Fprintf(w, "stored: %s log %.0f%% dead\n", l.name, frac*100)
						compact = true
					}
				}
			}
			if compact {
				kept, dropped, err := handler.CompactStore()
				if err != nil {
					fmt.Fprintf(w, "stored: auto-compact failed: %v\n", err)
					continue
				}
				fmt.Fprintf(w, "stored: auto-compacted: kept=%d dropped=%d\n", kept, dropped)
			}
		}
	}()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	case <-testShutdown:
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-maintainDone
	fmt.Fprintf(w, "stored: drained, %d entries stored\n", st.Len())
	return nil
}

// openStore opens the store in dir with both of its logs, the results and
// the blob tier beside them, and returns the two for the lifecycle loop.
func openStore(dir string, lruEntries int) (*store.Store, *store.NDJSON, *store.FileBlobs, error) {
	results, err := store.OpenNDJSON(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	st := store.New(lruEntries, results)
	blobs, err := store.OpenFileBlobs(dir)
	if err != nil {
		st.Close() //repro:degrade error-path teardown; the open failure is the one to surface
		return nil, nil, nil, err
	}
	st.SetBlobs(blobs)
	return st, results, blobs, nil
}
