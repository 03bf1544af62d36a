package store

import (
	"errors"
	"sync/atomic"
)

// Tiered composes two Backends into one: a fast near tier (typically the
// local NDJSON directory) in front of an authoritative far tier (typically
// the remote fleet store). Reads try the near tier first and write far-tier
// hits back into it, so a process pays one remote round trip per key ever;
// writes land in both tiers, so local results are durable even when the
// fleet store is unreachable and shared as soon as it is not. This is how
// `-cache DIR -store URL` compose in the CLIs.
//
// Like every Backend, each tier is last-write-wins per content-addressed
// key, so the tiers can only disagree transiently about presence, never
// about values.
type Tiered struct {
	near, far Backend
	degraded  atomic.Int64 // far-tier write failures the near tier absorbed
}

// NewTiered layers near in front of far. Both must be non-nil.
func NewTiered(near, far Backend) *Tiered {
	return &Tiered{near: near, far: far}
}

// Get implements Backend: near tier first, then far with write-back.
func (t *Tiered) Get(key string) ([]byte, bool, error) {
	if v, ok, _ := t.near.Get(key); ok { //repro:degrade a near-tier read failure degrades to a far-tier lookup
		return v, true, nil
	}
	v, ok, err := t.far.Get(key)
	if ok {
		t.near.Put(key, v) //repro:degrade best-effort write-back; a failure just costs a future round trip
		return v, true, nil
	}
	return nil, false, err
}

// Put implements Backend, writing to both tiers. Either tier may fail
// independently; the value is durable if at least one write landed, and a
// combined error is returned (and counted once by the Store) only when
// both failed. A far-tier failure the near tier absorbed is not silent:
// it is counted in Degraded (surfaced as Stats.Degraded), because a fleet
// prime pass whose every far write fails would otherwise "succeed" while
// sharing nothing.
func (t *Tiered) Put(key string, val []byte) error {
	nerr := t.near.Put(key, val)
	ferr := t.far.Put(key, val)
	if ferr != nil {
		t.countFarLoss(1)
	}
	if nerr != nil && ferr != nil {
		return errors.Join(nerr, ferr)
	}
	return nil
}

// countFarLoss records n far-tier write losses — unless the far tier
// counts its own (a Router), in which case Degraded's nested sum already
// carries them and counting here would double.
func (t *Tiered) countFarLoss(n int) {
	if _, selfCounting := t.far.(degrader); !selfCounting {
		t.degraded.Add(int64(n))
	}
}

// Has implements Backend.
func (t *Tiered) Has(key string) bool {
	return t.near.Has(key) || t.far.Has(key)
}

// ForEach implements Backend over the union of the tiers: every near entry,
// then every far entry not shadowed by the near tier. A far tier that
// cannot enumerate (the remote client) surfaces its error.
func (t *Tiered) ForEach(fn func(key string, val []byte) error) error {
	if err := t.near.ForEach(fn); err != nil {
		return err
	}
	return t.far.ForEach(func(key string, val []byte) error {
		if t.near.Has(key) {
			return nil
		}
		return fn(key, val)
	})
}

// Len implements Backend as max(near, far): a lower bound on the union,
// like Router.Len. The tiers can be disjoint (a near tier primed while
// the fleet store was down, a far tier shared with other workers), and
// counting the union exactly would probe the far tier for every near key.
func (t *Tiered) Len() int {
	return max(t.near.Len(), t.far.Len())
}

// GetBatch implements BatchBackend: near hits are served locally, the rest
// travel in one far-tier batch (when the far tier can batch) and are
// written back into the near tier.
func (t *Tiered) GetBatch(keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	var missing []string
	for _, k := range keys {
		if v, ok, _ := t.near.Get(k); ok { //repro:degrade a near-tier read failure degrades to the far batch below
			out[k] = v
		} else {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return out, nil
	}
	far, err := getBatch(t.far, missing)
	if err != nil {
		if len(out) > 0 {
			return out, nil // near hits still count; the rest degrade per-key
		}
		return nil, err
	}
	// Walk the request order, not the reply map: write-backs land in the
	// near tier's log in a deterministic order.
	for _, k := range missing {
		if v, ok := far[k]; ok {
			t.near.Put(k, v) //repro:degrade best-effort write-back; a failure just costs a future round trip
			out[k] = v
		}
	}
	return out, nil
}

// PutBatch implements BatchBackend: the near tier takes per-key writes (it
// is local, and keys it already holds are skipped — re-merging a shard
// must not grow its append-only log), the far tier one batch when it can
// (the far side dedups identical rewrites itself). Like Put, far-tier
// write losses are counted in Degraded — the near writes landed, the
// fleet saw nothing — and the error is still returned so batch callers
// can abort or count.
func (t *Tiered) PutBatch(entries []Entry) (int, error) {
	added, _, err := t.putBatchPlaced(entries)
	return added, err
}

// putBatchPlaced implements placer. lost counts entries guaranteed
// durable in neither tier: with near and far failure sets unknowable per
// entry, only max(0, nearLost+farLost-len) entries must have failed both.
func (t *Tiered) putBatchPlaced(entries []Entry) (added, lost int, err error) {
	nearLost := 0
	for _, e := range entries {
		if t.near.Has(e.Key) {
			continue
		}
		if t.near.Put(e.Key, e.Val) != nil {
			nearLost++
		}
	}
	added, farLost, err := putBatch(t.far, entries)
	if farLost > 0 {
		t.countFarLoss(farLost)
	}
	if lost = nearLost + farLost - len(entries); lost < 0 {
		lost = 0
	}
	return added, lost, err
}

// HasBatch implements HasBatcher: near presence is answered locally, the
// rest in one far-tier probe when the far tier can batch.
func (t *Tiered) HasBatch(keys []string) (map[string]bool, error) {
	present := make(map[string]bool, len(keys))
	var missing []string
	for _, k := range keys {
		if t.near.Has(k) {
			present[k] = true
		} else {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return present, nil
	}
	far, err := hasBatch(t.far, missing)
	if err != nil {
		return present, nil // near answers stand; absent-by-default is safe
	}
	for k, ok := range far {
		if ok {
			present[k] = true
		}
	}
	return present, nil
}

// GroupOf implements grouper by delegating to the far tier: a merge
// through `-cache DIR -store FLEET` groups entries by their routed owner,
// and the near tier takes its per-key writes regardless of grouping.
func (t *Tiered) GroupOf(key string) int {
	if g, ok := t.far.(grouper); ok {
		return g.GroupOf(key)
	}
	return 0
}

// Groups implements grouper (see GroupOf).
func (t *Tiered) Groups() int {
	if g, ok := t.far.(grouper); ok {
		return g.Groups()
	}
	return 1
}

// Degraded returns the far-tier write failures the near tier absorbed
// (plus any nested composite's own count): writes that looked successful
// to the caller but never reached the fleet store.
func (t *Tiered) Degraded() int64 {
	n := t.degraded.Load()
	for _, tier := range []Backend{t.near, t.far} {
		if d, ok := tier.(degrader); ok {
			n += d.Degraded()
		}
	}
	return n
}

// Superseded sums the tiers' dead-duplicate counts.
func (t *Tiered) Superseded() int64 {
	var n int64
	if sp, ok := t.near.(superseder); ok {
		n += sp.Superseded()
	}
	if sp, ok := t.far.(superseder); ok {
		n += sp.Superseded()
	}
	return n
}

// Close implements Backend, closing both tiers.
func (t *Tiered) Close() error {
	return errors.Join(t.near.Close(), t.far.Close())
}

// getBatch fetches keys through the backend's batch path when it has one
// and per-key Gets otherwise.
func getBatch(be Backend, keys []string) (map[string][]byte, error) {
	if bb, ok := be.(BatchBackend); ok {
		return bb.GetBatch(keys)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok, _ := be.Get(k); ok { //repro:degrade the per-key fallback reads a failed Get as a miss, like Store.Get
			out[k] = v
		}
	}
	return out, nil
}

// putBatch stores entries through the backend's batch path when it has one
// and per-key Puts otherwise, reporting how many keys were new (added) and
// how many entries are known to have failed to land on this backend
// (lost). The two are distinct: a successful overwrite is neither added
// nor lost — conflating them would count phantom adds (a key counted new
// before the Put that then failed) or phantom losses (a landed overwrite
// counted lost because added came back 0). Composite backends report
// placement exactly (placer); a plain batch backend's failure is
// all-or-nothing; the per-key fallback counts everything after the first
// failure as lost.
func putBatch(be Backend, entries []Entry) (added, lost int, err error) {
	if pl, ok := be.(placer); ok {
		return pl.putBatchPlaced(entries)
	}
	if bb, ok := be.(BatchBackend); ok {
		n, err := bb.PutBatch(entries)
		if err != nil {
			return n, len(entries), err // one request carried the whole batch
		}
		return n, 0, nil
	}
	landed := 0
	for _, e := range entries {
		isNew := !be.Has(e.Key)
		if err := be.Put(e.Key, e.Val); err != nil {
			return added, len(entries) - landed, err
		}
		landed++
		if isNew {
			added++
		}
	}
	return added, 0, nil
}
