package remote

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// A drain pushes a keyspace's foreign records in chunks of at most
// drainChunk records, matching the store's batch chunking, and closes a
// chunk early once its values reach drainChunkBytes: results fill a chunk
// by count, while blobs, which reach megabytes, fill one by bytes. Either
// way a drain of any size streams in bounded request bodies.
const (
	drainChunk      = 512
	drainChunkBytes = 16 << 20
)

// DrainStore is the migrator: for the result store and the blob tier
// alike, it enumerates st's keys, keeps the ones the ring assigns to self,
// and pushes every other record to its owning member in batched puts
// (/v1/mput, /v1/blob/put) — deleting the local copy only after the owner
// acknowledged the write, so at every instant the record is durable
// somewhere and a crash mid-drain can at worst leave an extra copy of a
// content-addressed value, never lose one. Draining is idempotent:
// re-running after a partial failure pushes only what is still foreign.
// A self absent from the ring (a decommissioned replica) owns nothing and
// drains everything.
//
// Used by the server's /v1/drain handler (live fleets) and by
// `stored -drain` (offline, against the closed directory).
func DrainStore(st *store.Store, ring *store.Ring, self string) (DrainReply, error) {
	var dr DrainReply
	if ring == nil {
		return dr, fmt.Errorf("remote: drain needs a ring")
	}
	selfIdx := ring.Index(self)
	var errs []error
	for _, ks := range keyspaces(st) {
		keys := ks.keys()
		if keys == nil && ks.length() > 0 {
			return dr, fmt.Errorf("remote: drain needs an enumerable backend")
		}
		byOwner := make([][]string, len(ring.Members)) // ring order, so errors list owners in it
		for _, k := range keys {
			if owner := ring.Owner(k); owner != selfIdx {
				byOwner[owner] = append(byOwner[owner], k)
			} else {
				dr.Kept++
			}
		}
		for owner, foreign := range byOwner {
			if len(foreign) == 0 {
				continue
			}
			m := ring.Members[owner]
			if m.URL == "" {
				errs = append(errs, fmt.Errorf("remote: ring member %q has no URL to drain to", m.Name))
				continue
			}
			cl, err := NewClient(m.URL, nil)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			var entries []store.Entry
			size := 0
			push := func() {
				if len(entries) == 0 {
					return
				}
				if _, err := cl.put(ks.pushPath, entries, gzipped); err != nil {
					// This chunk's records stay local — still readable here,
					// still foreign, so the next drain retries them.
					errs = append(errs, fmt.Errorf("remote: drain to %s: %w", m.Name, err))
				} else {
					dr.Moved += len(entries)
					for _, e := range entries {
						if existed, err := ks.del(e.Key); err == nil && existed {
							dr.Deleted++
						}
					}
				}
				entries, size = entries[:0], 0
			}
			for _, k := range foreign {
				// Peek, not Get: migration traffic must not masquerade as
				// cache hits. A key that vanished since enumeration (a
				// concurrent eviction) has nothing left to move.
				v, ok := ks.peek(k)
				if !ok {
					continue
				}
				entries = append(entries, store.Entry{Key: k, Val: v})
				if size += len(v); len(entries) == drainChunk || size >= drainChunkBytes {
					push()
				}
			}
			push()
			if cerr := cl.Close(); cerr != nil {
				errs = append(errs, fmt.Errorf("remote: drain close %s: %w", m.Name, cerr))
			}
		}
	}
	return dr, errors.Join(errs...)
}

// Rebalance re-places a live fleet onto ring: it installs the ring on
// every member (epoch-checked by each server), then asks each member to
// drain the keys it no longer owns. After it returns without error, every
// key sits on exactly the replica the new ring assigns it — a warmed
// 2-replica fleet scaled to 3 replays with zero misses and zero
// re-executions. diag, when non-nil, receives one progress line per
// member. Rebalancing is idempotent: re-running it on a settled fleet
// installs the same epoch (a no-op) and drains nothing.
func Rebalance(ring *store.Ring, diag io.Writer) error {
	if ring == nil {
		return fmt.Errorf("remote: rebalance needs a ring")
	}
	if err := ring.Validate(); err != nil {
		return err
	}
	clients := make([]*Client, len(ring.Members))
	for i, m := range ring.Members {
		if m.URL == "" {
			return fmt.Errorf("remote: ring member %q has no URL", m.Name)
		}
		cl, err := NewClient(m.URL, nil)
		if err != nil {
			return err
		}
		defer cl.Close() //repro:degrade control-plane client teardown; every RPC outcome was already checked
		clients[i] = cl
	}
	// Install everywhere before draining anywhere: a member draining under
	// the new ring may push to a member that must not refuse the epoch.
	for i, cl := range clients {
		if err := cl.InstallRing(ring); err != nil {
			return fmt.Errorf("remote: install ring on %s: %w", ring.Members[i].Name, err)
		}
	}
	for i, cl := range clients {
		dr, err := cl.Drain()
		if err != nil {
			return fmt.Errorf("remote: drain %s: %w", ring.Members[i].Name, err)
		}
		if diag != nil {
			fmt.Fprintf(diag, "rebalance %s: moved=%d deleted=%d kept=%d\n", //repro:degrade progress line on a diagnostic writer
				ring.Members[i].Name, dr.Moved, dr.Deleted, dr.Kept)
		}
	}
	return nil
}
