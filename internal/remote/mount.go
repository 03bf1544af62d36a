package remote

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/store"
)

// MountFleet assembles the result store a CLI asked for from its -cache
// DIR and -store URL[,URL…] flags:
//
//	cacheDir only   → the local NDJSON-backed store (PR-3 behaviour)
//	one store URL   → the fleet store, mounted through a Client
//	N store URLs    → a store.Router over N fleet instances: each key is
//	                  owned by exactly one instance (the fleet's placement
//	                  ring), batches split per replica, a down replica
//	                  fails over to the runner-up and then degrades to
//	                  misses instead of failing the run
//	cacheDir + URLs → a store.Tiered: the local directory as a near tier in
//	                  front of the fleet tier, so each process pays one
//	                  remote round trip per key ever
//	neither         → no store (st is nil), plain uncached execution
//
// The blob tier (captured execution traces, store.BlobBackend) mirrors the
// result tiers shape for shape: a cache directory serves blobs from its
// blobs/ sublog, a fleet serves them through the same client(s) and
// placement ring as results, and cacheDir+URLs stacks a store.TieredBlobs
// so a trace fetched from the fleet is written back beside the local
// results.
//
// Placement comes from the fleet itself when it has one: the mount asks
// every listed replica for its installed ring (/v1/ring) and routes by the
// newest epoch found, dialing any ring member the flag list omitted — so
// a worker can mount a whole fleet by naming one member, and a resized
// fleet re-places every client at its next mount with no flag changes.
// When no replica serves a ring, placement falls back to the flag list
// (epoch 0, URL order), which is why the list is then order-sensitive:
// every process must pass the same URLs in the same order. A flag URL
// that is not a member of the fleet's ring is refused — writing through a
// replica the ring does not own would split the fleet's placement brain.
//
// Every replica is pinged once so an unreachable address, a wrong port, or
// a non-stored endpoint fails fast and loudly here — once a run is
// underway the degrade-to-miss discipline would hide a typoed URL behind a
// silently cold (or silently half-cold) cache. The returned clients are
// one per replica, in ring order (flag order when no ring is served);
// empty when storeURL is empty. The returned ring is the placement the
// mount routes by: the fleet's authoritative ring when any replica serves
// one, the epoch-0 flag ring for a multi-URL list without one, nil for
// local-only and single-replica mounts.
func MountFleet(cacheDir, storeURL string) (st *store.Store, cls []*Client, ring *store.Ring, err error) {
	var be store.Backend
	var blobs store.BlobBackend
	if urls := splitList(storeURL); storeURL != "" && len(urls) == 0 {
		// "," or whitespace: the caller asked for a fleet store and named no
		// member (an unset env var in `-store "$A,$B"`); silently mounting
		// nothing would be the silently-cold cache this function fails fast on.
		return nil, nil, nil, fmt.Errorf("remote: bad store URL list %q: no URLs", storeURL)
	} else if len(urls) > 0 {
		flagClients := make([]*Client, len(urls))
		for i, u := range urls {
			cl, err := NewClient(u, nil)
			if err != nil {
				return nil, nil, nil, err
			}
			sr, err := cl.Ping()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("store %s unreachable: %w", u, err)
			}
			if sr.Protocol != ProtocolVersion {
				return nil, nil, nil, fmt.Errorf("store %s speaks protocol %q, this binary speaks %q", u, sr.Protocol, ProtocolVersion)
			}
			flagClients[i] = cl
		}
		// Discover the fleet's placement: the newest ring any listed replica
		// serves wins (a half-installed resize resolves to the new epoch).
		// Discovery is best-effort per replica — placement can be learned
		// from ANY member, so a half-alive replica whose /v1/ring errors
		// just contributes no opinion; if no member serves a ring the flag
		// list takes over, and a stale mount is caught by the epoch echoed
		// on every later reply.
		for _, cl := range flagClients {
			r, err := cl.FetchRing()
			if err != nil {
				continue
			}
			if r != nil && (ring == nil || r.Epoch > ring.Epoch) {
				ring = r
			}
		}
		if ring != nil {
			cls, err = ringClients(ring, flagClients)
			if err != nil {
				return nil, nil, nil, err
			}
			replicas := make([]store.Backend, len(cls))
			for i, cl := range cls {
				replicas[i] = cl
			}
			rtr := store.NewRingRouter(ring, replicas...)
			be, blobs = rtr, rtr
		} else {
			cls = flagClients
			if len(cls) == 1 {
				be, blobs = cls[0], cls[0]
			} else {
				ring = store.FlagRing(urls...)
				replicas := make([]store.Backend, len(cls))
				for i, cl := range cls {
					replicas[i] = cl
				}
				rtr := store.NewRingRouter(ring, replicas...)
				be, blobs = rtr, rtr
			}
		}
	}
	if cacheDir != "" {
		local, err := store.OpenNDJSON(cacheDir)
		if err != nil {
			return nil, nil, nil, err
		}
		fb, err := store.OpenFileBlobs(cacheDir)
		if err != nil {
			local.Close() //repro:degrade error-path teardown; the open failure below is the one to surface
			return nil, nil, nil, err
		}
		if blobs != nil {
			blobs = &store.TieredBlobs{Near: fb, Far: blobs}
		} else {
			blobs = fb
		}
		if be != nil {
			be = store.NewTiered(local, be)
		} else {
			be = local
		}
	}
	if be == nil {
		return nil, nil, nil, nil
	}
	st = store.New(0, be)
	st.SetBlobs(blobs)
	return st, cls, ring, nil
}

// ringClients maps an authoritative ring onto clients, one per member in
// ring order: flag clients are matched to their member by URL (a flag URL
// outside the ring is refused), members the flag list omitted are dialed
// and pinged here so the whole fleet fails fast like flag replicas do.
func ringClients(ring *store.Ring, flagClients []*Client) ([]*Client, error) {
	byURL := make(map[string]*Client, len(flagClients))
	for _, cl := range flagClients {
		byURL[cl.URL()] = cl
	}
	cls := make([]*Client, len(ring.Members))
	for i, m := range ring.Members {
		if m.URL == "" {
			return nil, fmt.Errorf("remote: ring member %q has no URL", m.Name)
		}
		if cl, ok := byURL[strings.TrimRight(m.URL, "/")]; ok {
			cls[i] = cl
			delete(byURL, cl.URL())
			continue
		}
		cl, err := NewClient(m.URL, nil)
		if err != nil {
			return nil, fmt.Errorf("remote: ring member %q: %w", m.Name, err)
		}
		if _, err := cl.Ping(); err != nil {
			return nil, fmt.Errorf("remote: ring member %q (%s) unreachable: %w", m.Name, m.URL, err)
		}
		cls[i] = cl
	}
	for u := range byURL {
		return nil, fmt.Errorf("remote: store %s is not a member of the fleet's ring (epoch %d, members %s)",
			u, ring.Epoch, strings.Join(ring.Names(), ","))
	}
	return cls, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// CLIStore is the mounted result store of one CLI invocation plus its
// shard assignment — everything the -cache/-store/-shard/-merge flag
// quartet resolves to, validated in one place so the binaries cannot
// drift.
type CLIStore struct {
	Store          *store.Store // nil when no store flags were given
	Clients        []*Client    // one per fleet replica, ring order; empty when -store was not given
	Ring           *store.Ring  // the placement ring routed by; nil for local-only and single-replica mounts
	ShardI, ShardM int          // 0,0 when -shard was not given
}

// Priming reports whether this invocation is a prime-only shard pass.
func (cs *CLIStore) Priming() bool { return cs.ShardM > 0 }

// Close closes the store, if any.
func (cs *CLIStore) Close() error {
	if cs.Store == nil {
		return nil
	}
	return cs.Store.Close()
}

// MountFlags assembles and validates a CLI's store flags: MountFleet for
// -cache/-store, then -merge (fold the listed shard directories in before
// running, mutually exclusive with -shard) and -shard i/m. diag receives
// the merge report; prog prefixes it ("experiments: merged …").
func MountFlags(diag io.Writer, prog, cacheDir, storeURL, shardArg, mergeArg string) (*CLIStore, error) {
	st, cls, ring, err := MountFleet(cacheDir, storeURL)
	if err != nil {
		return nil, err
	}
	cs := &CLIStore{Store: st, Clients: cls, Ring: ring}
	if mergeArg != "" {
		if st == nil {
			cs.Close() //repro:degrade error-path teardown; the flag error below is the one to surface
			return nil, fmt.Errorf("-merge requires -cache or -store")
		}
		if shardArg != "" {
			cs.Close() //repro:degrade error-path teardown; the flag error below is the one to surface
			return nil, fmt.Errorf("-merge and -shard are mutually exclusive (merge replays the full run)")
		}
		dirs := splitList(mergeArg)
		added, err := st.Merge(dirs...)
		if err != nil {
			cs.Close() //repro:degrade error-path teardown; the flag error below is the one to surface
			return nil, err
		}
		fmt.Fprintf(diag, "%s: merged %d entries from %d store(s)\n", prog, added, len(dirs)) //repro:degrade diagnostic line on stderr
	}
	if shardArg != "" {
		if st == nil {
			cs.Close() //repro:degrade error-path teardown; the flag error below is the one to surface
			return nil, fmt.Errorf("-shard requires -cache or -store")
		}
		if cs.ShardI, cs.ShardM, err = store.ParseShard(shardArg); err != nil {
			cs.Close() //repro:degrade error-path teardown; the flag error below is the one to surface
			return nil, err
		}
	}
	return cs, nil
}

// PrintStats writes the end-of-run store diagnostics every CLI prints to
// stderr: the cache traffic line (CI greps `misses=0` off it) with the
// placement ring's epoch when a fleet is mounted, and one line per
// replica with its key count — a sick replica shows up as its own
// netErrors count instead of blurring into a fleet-wide total, and
// placement skew is visible at a glance from the keys= columns. When any
// replica echoed a newer ring epoch than the one this process mounted,
// a warning names the skew: the run routed by a stale placement (safe —
// failover reads cover moved keys — but a remount re-places it).
func (cs *CLIStore) PrintStats(diag io.Writer, prog string) {
	if cs.Store != nil {
		ringSuffix := ""
		if cs.Ring != nil {
			ringSuffix = fmt.Sprintf(" ring=%d", cs.Ring.Epoch)
		}
		fmt.Fprintf(diag, "%s: cache %s (%d entries)%s\n", prog, cs.Store.Stats(), cs.Store.Len(), ringSuffix) //repro:degrade diagnostic line on stderr
	}
	var newest uint64
	for i, cl := range cs.Clients {
		label := "remote"
		if len(cs.Clients) > 1 {
			label = fmt.Sprintf("remote[%d %s]", i, cl.URL())
		}
		s := cl.Stats()
		fmt.Fprintf(diag, "%s: %s keys=%d gets=%d puts=%d coalesced=%d retried=%d netErrors=%d\n", //repro:degrade diagnostic line on stderr
			prog, label, cl.Len(), s.Gets, s.Puts, s.Coalesced, s.Retried, s.NetErrors)
		if e := cl.SeenEpoch(); e > newest {
			newest = e
		}
	}
	if cs.Ring != nil && newest > cs.Ring.Epoch {
		fmt.Fprintf(diag, "%s: warning: fleet serves ring epoch %d but this run mounted epoch %d — placement is stale, remount to re-place\n", //repro:degrade diagnostic line on stderr
			prog, newest, cs.Ring.Epoch)
	}
}
