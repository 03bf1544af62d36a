package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Router spreads one content-addressed key space across several far
// backends — typically N independent stored instances — so the fleet's
// shared cache scales horizontally instead of funnelling every worker
// through one server. Placement is the Ring's: each key is owned by the
// replica weighted rendezvous hashing assigns it, so every process holding
// the same ring routes every key identically and a replica holds a
// (weight-proportional) slice of the key space. This is what `-store
// URL1,URL2,…` mounts in the CLIs, under whatever ring the fleet serves.
//
// Batch traffic stays batched: GetBatch / PutBatch / HasBatch split the
// request into per-replica sub-batches, issue them concurrently, and merge
// the replies — a whole fan-out still costs one round trip per *replica*,
// not per key.
//
// Reads fail over along the rendezvous order: a key its owner cannot serve
// (down replica, or a slice still draining to a new owner after a resize)
// is retried on the runner-up replica — which, for a freshly moved key, is
// exactly its previous owner — before degrading to a miss. Writes go to
// the owner alone; a down owner's writes are counted failures (Degraded),
// the PR-3 rule that a cache pathology can cost re-executions, never an
// answer. Degraded operations are counted per replica (Failures) so a sick
// instance is visible in the CLIs' diagnostics instead of hiding behind a
// silently colder cache.
type Router struct {
	ring       *Ring
	replicas   []Backend
	failures   []atomic.Int64 // per-replica degraded operations (point or batch, read or write)
	lostWrites atomic.Int64   // write entries that failed to land (see Degraded)
}

// readRanks bounds a read's failover walk down the rendezvous order:
// owner plus runner-up. Rank 2+ replicas can only hold a key after two
// consecutive un-drained resizes, which a second rebalance pass cleans
// up; probing them on every miss would tax true misses instead.
const readRanks = 2

// NewRouter routes the key space across the given backends under a
// uniform anonymous ring (epoch 0, members "s1"…"sm" — the same logical
// ring shard passes use). The replica order is part of the partition:
// every process of a fleet must list the same backends in the same order,
// or they will disagree about which replica owns a key (safe — content
// addressing makes double writes idempotent — but it wastes space and
// round trips). Fleets that can change shape mount NewRingRouter with an
// authoritative named ring instead. At least one backend is required; a
// single backend routes everything to it.
func NewRouter(replicas ...Backend) *Router {
	if len(replicas) == 0 {
		panic("store: NewRouter needs at least one backend")
	}
	return NewRingRouter(UniformRing(len(replicas)), replicas...)
}

// NewRingRouter routes the key space across the backends by the given
// ring: replicas[i] serves ring.Members[i]. The ring decides placement;
// the backend list just supplies the transport.
func NewRingRouter(ring *Ring, replicas ...Backend) *Router {
	if ring == nil || len(ring.Members) != len(replicas) {
		panic("store: NewRingRouter needs one backend per ring member")
	}
	return &Router{ring: ring, replicas: replicas, failures: make([]atomic.Int64, len(replicas))}
}

// Ring returns the placement ring the router routes by.
func (r *Router) Ring() *Ring { return r.ring }

// Failures returns a snapshot of per-replica degraded operations: point or
// batch calls that failed and fell back to miss/memory-only. A nonzero
// entry names the sick instance.
func (r *Router) Failures() []int64 {
	out := make([]int64, len(r.failures))
	for i := range r.failures {
		out[i] = r.failures[i].Load()
	}
	return out
}

// GroupOf implements grouper: the index of the replica owning key, so a
// routed Merge can push each entry straight to its owner in full
// per-replica batches.
func (r *Router) GroupOf(key string) int { return r.ring.Owner(key) }

// Groups implements grouper.
func (r *Router) Groups() int { return len(r.replicas) }

// group splits keys into per-replica sub-slices by the given rendezvous
// rank (0 = owner, 1 = runner-up), preserving order.
func (r *Router) group(keys []string, rank int) [][]string {
	groups := make([][]string, len(r.replicas))
	if rank == 0 {
		for _, k := range keys {
			i := r.ring.Owner(k)
			groups[i] = append(groups[i], k)
		}
		return groups
	}
	for _, k := range keys {
		i := r.ring.Rank(k)[rank]
		groups[i] = append(groups[i], k)
	}
	return groups
}

// readRankLimit returns how many rendezvous ranks reads may probe.
func (r *Router) readRankLimit() int {
	if len(r.replicas) < readRanks {
		return len(r.replicas)
	}
	return readRanks
}

// Get implements Backend, probing the key's replicas in rendezvous order:
// the owner first, then the runner-up when the owner errors or misses —
// the mid-migration and down-owner cases — before reporting a miss. A
// down replica's error is counted and, when no later rank can serve the
// key, surfaces to the wrapping Store, which counts it and serves a miss.
func (r *Router) Get(key string) ([]byte, bool, error) {
	var firstErr error
	limit := r.readRankLimit()
	for rank, i := range r.ring.Rank(key) {
		if rank >= limit {
			break
		}
		v, ok, err := r.replicas[i].Get(key)
		if err != nil {
			r.failures[i].Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			return v, true, nil
		}
	}
	return nil, false, firstErr
}

// Put implements Backend, routing the write to the key's owner.
func (r *Router) Put(key string, val []byte) error {
	i := r.ring.Owner(key)
	if err := r.replicas[i].Put(key, val); err != nil {
		r.failures[i].Add(1)
		r.lostWrites.Add(1)
		return fmt.Errorf("store: router replica %d (%s): %w", i, r.ring.Members[i].Name, err)
	}
	return nil
}

// Has implements Backend with the same rendezvous failover as Get. A down
// replica reads as absent, like every other presence failure in the stack.
func (r *Router) Has(key string) bool {
	limit := r.readRankLimit()
	for rank, i := range r.ring.Rank(key) {
		if rank >= limit {
			break
		}
		if r.replicas[i].Has(key) {
			return true
		}
	}
	return false
}

// GetBatch implements BatchBackend: per-replica sub-batches issued
// concurrently, replies merged. Keys the first wave could not produce —
// a failed sub-batch, or keys the owner simply does not hold — are
// retried in a second wave against each key's runner-up replica, so a
// down or still-draining owner costs one extra round trip per replica
// instead of the keys' hits. Keys unresolved after both waves degrade to
// missing (the per-key Gets that follow will re-fail and count misses)
// instead of failing the whole batch.
func (r *Router) GetBatch(keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	remaining := keys
	limit := r.readRankLimit()
	for rank := 0; rank < limit && len(remaining) > 0; rank++ {
		groups := r.group(remaining, rank)
		results := make([]map[string][]byte, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			if len(g) == 0 {
				continue
			}
			wg.Add(1)
			go func(i int, g []string) {
				defer wg.Done()
				m, err := getBatch(r.replicas[i], g)
				if err != nil {
					r.failures[i].Add(1)
					return
				}
				results[i] = m
			}(i, g)
		}
		wg.Wait()
		for _, m := range results {
			for k, v := range m {
				out[k] = v
			}
		}
		if rank+1 < limit {
			var next []string
			for _, k := range remaining {
				if _, ok := out[k]; !ok {
					next = append(next, k)
				}
			}
			remaining = next
		}
	}
	return out, nil
}

// HasBatch implements HasBatcher with the same two-wave split/merge/
// failover shape as GetBatch: keys the owner cannot answer for are probed
// on their runner-up, and a key absent everywhere reads as absent, which
// only costs re-executions whose identical bytes deduplicate.
func (r *Router) HasBatch(keys []string) (map[string]bool, error) {
	out := make(map[string]bool, len(keys))
	remaining := keys
	limit := r.readRankLimit()
	for rank := 0; rank < limit && len(remaining) > 0; rank++ {
		groups := r.group(remaining, rank)
		results := make([]map[string]bool, len(groups))
		var wg sync.WaitGroup
		for i, g := range groups {
			if len(g) == 0 {
				continue
			}
			wg.Add(1)
			go func(i int, g []string) {
				defer wg.Done()
				m, err := hasBatch(r.replicas[i], g)
				if err != nil {
					r.failures[i].Add(1)
					return
				}
				results[i] = m
			}(i, g)
		}
		wg.Wait()
		for _, m := range results {
			for k, ok := range m {
				if ok {
					out[k] = true
				}
			}
		}
		if rank+1 < limit {
			var next []string
			for _, k := range remaining {
				if !out[k] {
					next = append(next, k)
				}
			}
			remaining = next
		}
	}
	return out, nil
}

// PutBatch implements BatchBackend: per-replica sub-batches issued
// concurrently. added sums the replicas that answered; a failed sub-batch
// is counted against its replica and reported in the joined error, so a
// push-merge surfaces partial placement instead of claiming success —
// while a buffered write path (WriteBuffer) just counts it and moves on.
func (r *Router) PutBatch(entries []Entry) (int, error) {
	added, _, err := r.putBatchPlaced(entries)
	return added, err
}

// putBatchPlaced implements placer: the lost count is exact per replica —
// a down instance loses its sub-batch's entries, the others lose nothing,
// successful overwrites on healthy replicas are never miscounted as lost.
func (r *Router) putBatchPlaced(entries []Entry) (added, lost int, err error) {
	groups := make([][]Entry, len(r.replicas))
	for _, e := range entries {
		i := r.ring.Owner(e.Key)
		groups[i] = append(groups[i], e)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g []Entry) {
			defer wg.Done()
			n, lostG, err := putBatch(r.replicas[i], g)
			mu.Lock()
			defer mu.Unlock()
			added += n
			lost += lostG
			if err != nil {
				r.failures[i].Add(1)
				errs = append(errs, fmt.Errorf("store: router replica %d (%s): %w", i, r.ring.Members[i].Name, err))
			}
		}(i, g)
	}
	wg.Wait()
	r.lostWrites.Add(int64(lost))
	return added, lost, errors.Join(errs...)
}

// ForEach implements Backend over every replica in order. Remote replicas
// refuse enumeration (remote.ErrNotEnumerable) and that refusal surfaces.
func (r *Router) ForEach(fn func(key string, val []byte) error) error {
	for _, be := range r.replicas {
		if err := be.ForEach(fn); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Backend as the sum of the replicas: the partition is
// disjoint by construction (transiently double-counting keys mid-drain),
// so no settled key is counted twice. An unreachable replica reads as
// empty and bounds the total from below.
func (r *Router) Len() int {
	n := 0
	for _, be := range r.replicas {
		n += be.Len()
	}
	return n
}

// Superseded sums the replicas' dead-duplicate counts.
func (r *Router) Superseded() int64 {
	var n int64
	for _, be := range r.replicas {
		if sp, ok := be.(superseder); ok {
			n += sp.Superseded()
		}
	}
	return n
}

// Degraded counts write entries that failed to land on their owner
// replica (plus any nested composite's own count) — the partial
// placements Stats.Degraded surfaces. Read-path failures are not
// included: they already read as misses.
func (r *Router) Degraded() int64 {
	n := r.lostWrites.Load()
	for _, be := range r.replicas {
		if d, ok := be.(degrader); ok {
			n += d.Degraded()
		}
	}
	return n
}

// Compact implements Compactor over every replica that supports it.
func (r *Router) Compact() (kept, dropped int, err error) {
	for _, be := range r.replicas {
		if c, ok := be.(Compactor); ok {
			k, d, cerr := c.Compact()
			kept += k
			dropped += d
			if cerr != nil {
				return kept, dropped, cerr
			}
		}
	}
	return kept, dropped, nil
}

// Close implements Backend, closing every replica.
func (r *Router) Close() error {
	errs := make([]error, len(r.replicas))
	for i, be := range r.replicas {
		errs[i] = be.Close()
	}
	return errs2err(errs)
}

// errs2err joins a slice of possibly-nil errors.
func errs2err(errs []error) error { return errors.Join(errs...) }

// hasBatch probes keys through the backend's batch path when it has one
// and per-key Has otherwise.
func hasBatch(be Backend, keys []string) (map[string]bool, error) {
	if hb, ok := be.(HasBatcher); ok {
		return hb.HasBatch(keys)
	}
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		if be.Has(k) {
			out[k] = true
		}
	}
	return out, nil
}
