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
// answer. Which replica is sick shows in the CLIs' per-replica client
// lines (each remote.Client counts its own network errors).
type Router struct {
	ring       *Ring
	replicas   []Backend
	lostWrites atomic.Int64 // write entries that failed to land (see Degraded)
}

// readRanks bounds a read's failover walk down the rendezvous order:
// owner plus runner-up. Rank 2+ replicas can only hold a key after two
// consecutive un-drained resizes, which a second rebalance pass cleans
// up; probing them on every miss would tax true misses instead.
const readRanks = 2

// NewRingRouter routes the key space across the backends by the given
// ring: replicas[i] serves ring.Members[i]. The ring decides placement;
// the backend list just supplies the transport.
func NewRingRouter(ring *Ring, replicas ...Backend) *Router {
	if ring == nil || len(ring.Members) != len(replicas) {
		panic("store: NewRingRouter needs one backend per ring member")
	}
	return &Router{ring: ring, replicas: replicas}
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

// walk is the one failover loop of every point read: it calls try on the
// key's replicas in rendezvous order — the owner, then the runner-up —
// until one serves the key. A replica that errors or misses passes the
// key on to the next rank. When no rank served it, walk returns the first
// error seen, which the wrapping Store counts before serving a miss.
func (r *Router) walk(key string, try func(be Backend) (bool, error)) (bool, error) {
	var firstErr error
	for rank, i := range r.ring.Rank(key) {
		if rank >= readRanks {
			break
		}
		ok, err := try(r.replicas[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if ok {
			return true, nil
		}
	}
	return false, firstErr
}

// Get implements Backend through walk: the owner first, then the runner-up
// when the owner errors or misses — the mid-migration and down-owner cases
// — before reporting a miss.
func (r *Router) Get(key string) ([]byte, bool, error) {
	var val []byte
	ok, err := r.walk(key, func(be Backend) (bool, error) {
		v, ok, err := be.Get(key)
		val = v
		return ok, err
	})
	if !ok {
		return nil, false, err
	}
	return val, true, nil
}

// Put implements Backend, routing the write to the key's owner.
func (r *Router) Put(key string, val []byte) error {
	i := r.ring.Owner(key)
	if err := r.replicas[i].Put(key, val); err != nil {
		r.lostWrites.Add(1)
		return fmt.Errorf("store: router replica %d (%s): %w", i, r.ring.Members[i].Name, err)
	}
	return nil
}

// Has implements Backend through walk. A down replica reads as absent,
// like every other presence failure in the stack.
func (r *Router) Has(key string) bool {
	ok, _ := r.walk(key, func(be Backend) (bool, error) { return be.Has(key), nil }) //repro:degrade Has never errors; absence is the degraded answer
	return ok
}

// GetBatch implements BatchBackend through readWaves: a down or
// still-draining owner costs one extra round trip per replica instead of
// the keys' hits, and keys unresolved after both waves are missing from
// the reply, which is final — the cached engine counts them as misses
// without asking the fleet again.
func (r *Router) GetBatch(keys []string) (map[string][]byte, error) {
	return readWaves(r, keys, getBatch, func([]byte) bool { return true }), nil
}

// HasBatch implements HasBatcher through readWaves. A false answer leaves
// the key unresolved, so it is probed on its runner-up too; a key absent
// everywhere reads as absent, which only costs re-executions whose
// identical bytes deduplicate.
func (r *Router) HasBatch(keys []string) (map[string]bool, error) {
	return readWaves(r, keys, hasBatch, func(ok bool) bool { return ok }), nil
}

// readWaves is the one batch read: the keys go out in per-replica
// sub-batches by owner, issued concurrently, and the replies are merged.
// Keys the owners left unresolved — a failed sub-batch, or a key its owner
// does not hold — go out in a second wave to their runner-ups. A reply
// value resolves its key when resolves says so; a key still unresolved
// after the last wave is missing from the result.
func readWaves[V any](r *Router, keys []string, read func(Backend, []string) (map[string]V, error), resolves func(V) bool) map[string]V {
	out := make(map[string]V, len(keys))
	limit := min(readRanks, len(r.replicas))
	for rank := 0; rank < limit && len(keys) > 0; rank++ {
		groups := r.group(keys, rank)
		results := make([]map[string]V, len(groups))
		fanOut(groups, func(i int, g []string) {
			if m, err := read(r.replicas[i], g); err == nil {
				results[i] = m
			}
		})
		for _, m := range results {
			for k, v := range m { //repro:unordered per-key map writes; a key rides in one sub-batch per wave, so no two replies race for it
				if resolves(v) {
					out[k] = v
				}
			}
		}
		if rank+1 < limit {
			var next []string
			for _, k := range keys {
				if _, ok := out[k]; !ok {
					next = append(next, k)
				}
			}
			keys = next
		}
	}
	return out
}

// fanOut calls fn concurrently on every non-empty per-replica group and
// waits for all of them: the one fan-out behind both read waves and
// PutBatch.
func fanOut[T any](groups [][]T, fn func(i int, g []T)) {
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, g)
		}()
	}
	wg.Wait()
}

// PutBatch implements BatchBackend: per-replica sub-batches issued
// concurrently. added sums the replicas that answered; a failed sub-batch
// is reported in the joined error, so a push-merge surfaces partial
// placement instead of claiming success — while a buffered write path
// (WriteBuffer) just counts it and moves on.
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
		mu   sync.Mutex
		errs []error
	)
	fanOut(groups, func(i int, g []Entry) {
		n, lostG, err := putBatch(r.replicas[i], g)
		mu.Lock()
		defer mu.Unlock()
		added += n
		lost += lostG
		if err != nil {
			errs = append(errs, fmt.Errorf("store: router replica %d (%s): %w", i, r.ring.Members[i].Name, err))
		}
	})
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

// Close implements Backend, closing every replica.
func (r *Router) Close() error {
	errs := make([]error, len(r.replicas))
	for i, be := range r.replicas {
		errs[i] = be.Close()
	}
	return errors.Join(errs...)
}

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
