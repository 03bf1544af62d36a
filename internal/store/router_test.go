package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
)

// mapBackend is a minimal in-memory Backend for routing and tiering tests,
// with injectable failure modes: down makes every operation fail (a dead
// replica), failPuts fails only writes (a full disk, a rejecting server).
type mapBackend struct {
	mu       sync.Mutex
	m        map[string][]byte
	down     bool
	failPuts bool
}

func newMapBackend() *mapBackend { return &mapBackend{m: make(map[string][]byte)} }

func (b *mapBackend) Get(key string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return nil, false, errors.New("backend down")
	}
	v, ok := b.m[key]
	return v, ok, nil
}

func (b *mapBackend) Put(key string, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down || b.failPuts {
		return errors.New("backend down")
	}
	b.m[key] = val
	return nil
}

func (b *mapBackend) Has(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return false
	}
	_, ok := b.m[key]
	return ok
}

func (b *mapBackend) ForEach(fn func(key string, val []byte) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, v := range b.m {
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

func (b *mapBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

func (b *mapBackend) Close() error { return nil }

// batchMapBackend adds counted batch paths, so tests can assert traffic
// travelled batched rather than per key.
type batchMapBackend struct {
	*mapBackend
	mu         sync.Mutex
	putBatches []int // entry count of each PutBatch call
	getBatches int
	hasBatches int
}

func newBatchMapBackend() *batchMapBackend { return &batchMapBackend{mapBackend: newMapBackend()} }

func (b *batchMapBackend) GetBatch(keys []string) (map[string][]byte, error) {
	b.mu.Lock()
	b.getBatches++
	b.mu.Unlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok, err := b.mapBackend.Get(k); err != nil {
			return nil, err
		} else if ok {
			out[k] = v
		}
	}
	return out, nil
}

func (b *batchMapBackend) PutBatch(entries []store.Entry) (int, error) {
	b.mu.Lock()
	b.putBatches = append(b.putBatches, len(entries))
	b.mu.Unlock()
	added := 0
	for _, e := range entries {
		isNew := !b.mapBackend.Has(e.Key)
		if err := b.mapBackend.Put(e.Key, e.Val); err != nil {
			return added, err
		}
		if isNew {
			added++
		}
	}
	return added, nil
}

func (b *batchMapBackend) HasBatch(keys []string) (map[string]bool, error) {
	b.mu.Lock()
	b.hasBatches++
	b.mu.Unlock()
	b.mapBackend.mu.Lock()
	defer b.mapBackend.mu.Unlock()
	if b.mapBackend.down {
		return nil, errors.New("backend down")
	}
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		if _, ok := b.mapBackend.m[k]; ok {
			out[k] = true
		}
	}
	return out, nil
}

func TestRouterImplementsBatchInterfaces(t *testing.T) {
	var _ store.Backend = (*store.Router)(nil)
	var _ store.BatchBackend = (*store.Router)(nil)
	var _ store.HasBatcher = (*store.Router)(nil)
}

// TestRouterPartitionsKeySpace pins the routing invariant: every key lands
// on exactly the replica the ring assigns it, so all fleet processes agree
// on placement and replica key spaces stay disjoint.
func TestRouterPartitionsKeySpace(t *testing.T) {
	replicas := []*mapBackend{newMapBackend(), newMapBackend(), newMapBackend()}
	ring := store.UniformRing(3)
	r := store.NewRingRouter(ring, replicas[0], replicas[1], replicas[2])
	defer r.Close()

	const n = 120
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		if err := r.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		owner := ring.Owner(k)
		for ri, be := range replicas {
			if got := be.Has(k); got != (ri == owner) {
				t.Fatalf("key %d: replica %d has=%v, owner is %d", i, ri, got, owner)
			}
		}
		if v, ok, err := r.Get(k); !ok || err != nil || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %d: %q ok=%v err=%v", i, v, ok, err)
		}
		if !r.Has(k) {
			t.Fatalf("key %d: Has=false after Put", i)
		}
	}
	sum := 0
	for ri, be := range replicas {
		if be.Len() == 0 {
			t.Fatalf("replica %d never hit over %d keys — partition is degenerate", ri, n)
		}
		sum += be.Len()
	}
	if sum != n || r.Len() != n {
		t.Fatalf("sum of replicas %d, router Len %d, want %d (disjoint partition)", sum, r.Len(), n)
	}
}

// TestRouterBatchesSplitPerReplica pins that batch calls stay batched: one
// sub-batch per replica, merged replies, no per-key fallback on the healthy
// path.
func TestRouterBatchesSplitPerReplica(t *testing.T) {
	replicas := []*batchMapBackend{newBatchMapBackend(), newBatchMapBackend(), newBatchMapBackend()}
	ring := store.UniformRing(3)
	r := store.NewRingRouter(ring, replicas[0], replicas[1], replicas[2])
	defer r.Close()

	entries := make([]store.Entry, 60)
	keys := make([]string, len(entries))
	for i := range entries {
		keys[i] = store.Key("v1", i)
		entries[i] = store.Entry{Key: keys[i], Val: []byte(fmt.Sprintf(`{"i":%d}`, i))}
	}
	added, err := r.PutBatch(entries)
	if err != nil || added != len(entries) {
		t.Fatalf("PutBatch added=%d err=%v, want %d, nil", added, err, len(entries))
	}
	got, err := r.GetBatch(keys)
	if err != nil || len(got) != len(keys) {
		t.Fatalf("GetBatch returned %d err=%v, want %d", len(got), err, len(keys))
	}
	present, err := r.HasBatch(keys)
	if err != nil || len(present) != len(keys) {
		t.Fatalf("HasBatch returned %d err=%v, want %d", len(present), err, len(keys))
	}
	for ri, be := range replicas {
		if len(be.putBatches) != 1 || be.getBatches != 1 || be.hasBatches != 1 {
			t.Fatalf("replica %d saw putBatches=%v getBatches=%d hasBatches=%d, want one sub-batch each",
				ri, be.putBatches, be.getBatches, be.hasBatches)
		}
		if be.putBatches[0] != be.Len() {
			t.Fatalf("replica %d sub-batch carried %d entries for %d keys", ri, be.putBatches[0], be.Len())
		}
	}
}

// TestRouterDownReplicaDegradesToMiss is the failover discipline: with one
// of three replicas down, its keys read as misses and write as counted
// failures while the other replicas keep serving — never an error into the
// simulation, never lost hits on the healthy replicas.
func TestRouterDownReplicaDegradesToMiss(t *testing.T) {
	replicas := []*mapBackend{newMapBackend(), newMapBackend(), newMapBackend()}
	ring := store.UniformRing(3)
	r := store.NewRingRouter(ring, replicas[0], replicas[1], replicas[2])
	st := store.New(0, r)
	defer st.Close()

	const n = 60
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if s := st.Stats(); s.PutErrors != 0 {
		t.Fatalf("healthy puts failed: %+v", s)
	}

	const sick = 1
	replicas[sick].down = true
	// A fresh Store: the LRU of the priming store would mask the backend.
	cold := store.New(0, r)
	hits, misses := 0, 0
	for _, k := range keys {
		if _, ok := cold.Get(k); ok {
			hits++
		} else {
			misses++
		}
	}
	sickKeys := 0
	for _, k := range keys {
		if ring.Owner(k) == sick {
			sickKeys++
		}
	}
	if misses != sickKeys || hits != n-sickKeys {
		t.Fatalf("hits=%d misses=%d, want %d and %d: exactly the down replica's keys degrade",
			hits, misses, n-sickKeys, sickKeys)
	}

	// Batch reads keep the healthy replicas' answers.
	got, err := r.GetBatch(keys)
	if err != nil || len(got) != n-sickKeys {
		t.Fatalf("GetBatch with a down replica: %d entries err=%v, want %d and nil", len(got), err, n-sickKeys)
	}
	present, err := r.HasBatch(keys)
	if err != nil || len(present) != n-sickKeys {
		t.Fatalf("HasBatch with a down replica: %d present err=%v, want %d and nil", len(present), err, n-sickKeys)
	}

	// A read-only outage is NOT degradation: nothing was written, nothing
	// was lost — only misses happened.
	if got := r.Degraded(); got != 0 {
		t.Fatalf("read-only failures counted as degraded writes: %d", got)
	}

	// Writes to the down replica are counted failures — exactly one lost
	// entry per down-replica key; the other replicas still take theirs.
	for _, k := range keys {
		cold.Put(k, []byte(`{"rewrite":true}`))
	}
	if s := cold.Stats(); s.PutErrors != int64(sickKeys) {
		t.Fatalf("putErrors=%d, want %d (one per down-replica key)", s.PutErrors, sickKeys)
	}
	if got := r.Degraded(); got != int64(sickKeys) {
		t.Fatalf("Degraded=%d, want exactly the %d lost writes", got, sickKeys)
	}

	// Recovery: the replica comes back, its keys are re-writable and
	// re-readable; nothing about the healthy replicas changed.
	replicas[sick].down = false
	for _, k := range keys {
		if ring.Owner(k) == sick {
			if err := r.Put(k, []byte(`{"back":true}`)); err != nil {
				t.Fatalf("recovered replica rejected a write: %v", err)
			}
		}
	}
	if r.Len() != n {
		t.Fatalf("Len=%d after recovery, want %d", r.Len(), n)
	}
}

// TestRouterPutBatchReportsPartialPlacement pins that a half-failed batch
// write is not a silent success: added counts only landed entries and the
// error names the failing replica.
func TestRouterPutBatchReportsPartialPlacement(t *testing.T) {
	healthy, sick := newMapBackend(), newMapBackend()
	sick.failPuts = true
	ring := store.UniformRing(2)
	r := store.NewRingRouter(ring, healthy, sick)
	defer r.Close()

	entries := make([]store.Entry, 40)
	sickCount := 0
	for i := range entries {
		k := store.Key("v1", i)
		entries[i] = store.Entry{Key: k, Val: []byte(`{"v":1}`)}
		if ring.Owner(k) == 1 {
			sickCount++
		}
	}
	added, err := r.PutBatch(entries)
	if err == nil {
		t.Fatal("partial placement must return an error")
	}
	if added != len(entries)-sickCount {
		t.Fatalf("added=%d, want %d (only the healthy replica's entries)", added, len(entries)-sickCount)
	}
	if healthy.Len() != added || sick.Len() != 0 {
		t.Fatalf("placement: healthy=%d sick=%d, want %d and 0", healthy.Len(), sick.Len(), added)
	}
	if got := r.Degraded(); got != int64(sickCount) {
		t.Fatalf("Degraded=%d, want exactly the %d entries the sick replica lost", got, sickCount)
	}

	// Precision under overwrites: re-batching the same entries lands the
	// healthy replica's as successful overwrites (added=0) — they must not
	// be miscounted as lost just because nothing was "added".
	before := r.Degraded()
	added, err = r.PutBatch(entries)
	if err == nil || added != 0 {
		t.Fatalf("overwrite re-batch: added=%d err=%v, want 0 and the sick replica's error", added, err)
	}
	if got := r.Degraded() - before; got != int64(sickCount) {
		t.Fatalf("overwrite re-batch lost %d, want %d: landed overwrites counted as lost", got, sickCount)
	}
}

// TestTieredOverRouterCountsLossesOnce pins the composed accounting: a
// Tiered near tier over a Router with one down replica absorbs every
// write locally (zero put errors), while Degraded reports exactly the
// entries the down replica never took — counted once, not once per layer,
// and never inflated by the healthy replica's successful overwrites.
func TestTieredOverRouterCountsLossesOnce(t *testing.T) {
	healthy, down := newBatchMapBackend(), newMapBackend()
	down.down = true
	ring := store.UniformRing(2)
	router := store.NewRingRouter(ring, healthy, down)
	nearDir := t.TempDir()
	near, err := store.OpenNDJSON(nearDir)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(0, store.NewTiered(near, router))
	defer st.Close()

	const n = 30
	wb := store.NewWriteBuffer(st)
	downCount := 0
	for i := 0; i < n; i++ {
		k := store.Key("v1", i)
		if ring.Owner(k) == 1 {
			downCount++
		}
		wb.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	wb.Flush()
	s := st.Stats()
	if s.PutErrors != 0 {
		t.Fatalf("putErrors=%d, want 0: the near tier landed every entry", s.PutErrors)
	}
	if s.Degraded != int64(downCount) {
		t.Fatalf("degraded=%d, want exactly the %d entries the down replica never took", s.Degraded, downCount)
	}
	if near.Len() != n || healthy.Len() != n-downCount {
		t.Fatalf("placement: near=%d healthy=%d, want %d and %d", near.Len(), healthy.Len(), n, n-downCount)
	}
}
