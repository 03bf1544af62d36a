package remote

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/store"
)

// drainChunk bounds the entries per mput push while draining, matching
// the store's batch chunking: a drain of any size streams in bounded
// request bodies.
const drainChunk = 512

// DrainStore is the migrator: it enumerates st's keys, keeps the ones the
// ring assigns to self, and pushes every other key to its owning member
// via batched mput — deleting the local copy only after the owner
// acknowledged the write, so at every instant the key is durable
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
	keys := st.Keys()
	if keys == nil && st.Len() > 0 {
		return dr, fmt.Errorf("remote: drain needs an enumerable backend")
	}
	selfIdx := ring.Index(self)
	byOwner := make([][]string, len(ring.Members)) // ring order, so errors list owners in it
	for _, k := range keys {
		if owner := ring.Owner(k); owner != selfIdx {
			byOwner[owner] = append(byOwner[owner], k)
		} else {
			dr.Kept++
		}
	}
	var errs []error
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
		for len(foreign) > 0 {
			chunk := foreign
			if len(chunk) > drainChunk {
				chunk = chunk[:drainChunk]
			}
			foreign = foreign[len(chunk):]
			entries := make([]store.Entry, 0, len(chunk))
			for _, k := range chunk {
				// Peek, not Get: migration traffic must not masquerade as
				// cache hits. A key that vanished since enumeration (a
				// concurrent eviction) has nothing left to move.
				if v, ok := st.Peek(k); ok {
					entries = append(entries, store.Entry{Key: k, Val: v})
				}
			}
			if len(entries) == 0 {
				continue
			}
			if _, err := cl.PutBatch(entries); err != nil {
				// This chunk's keys stay local — still readable here, still
				// foreign, so the next drain retries them.
				errs = append(errs, fmt.Errorf("remote: drain to %s: %w", m.Name, err))
				continue
			}
			dr.Moved += len(entries)
			for _, e := range entries {
				if existed, err := st.Delete(e.Key); err == nil && existed {
					dr.Deleted++
				}
			}
		}
		if cerr := cl.Close(); cerr != nil {
			errs = append(errs, fmt.Errorf("remote: drain close %s: %w", m.Name, cerr))
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
