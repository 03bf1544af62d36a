package store_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestTieredFarWriteFailureIsCountedNotSilent is the regression for the
// fleet-blind prime pass: a Put whose near write lands but whose far write
// fails must still return nil (the value is durable locally) — but the
// failure is counted in Degraded and surfaced on the stats line, so a run
// that shared nothing with the fleet cannot read as a clean success.
func TestTieredFarWriteFailureIsCountedNotSilent(t *testing.T) {
	near, far := newMapBackend(), newMapBackend()
	far.failPuts = true
	tiered := store.NewTiered(near, far)
	st := store.New(0, tiered)
	defer st.Close()

	k := store.Key("v1", "unit")
	st.Put(k, []byte(`{"sc":1}`))
	if near.Len() != 1 || far.Len() != 0 {
		t.Fatalf("placement near=%d far=%d, want 1 and 0", near.Len(), far.Len())
	}
	s := st.Stats()
	if s.PutErrors != 0 {
		t.Fatalf("a near-landed put is not a put error: %+v", s)
	}
	if s.Degraded != 1 {
		t.Fatalf("degraded=%d, want 1 (the far write silently failed before this counter)", s.Degraded)
	}
	if !strings.Contains(s.String(), "degraded=1") {
		t.Fatalf("stats line must surface degradation: %s", s)
	}

	// Batch writes count too: every entry of a failed far batch.
	entries := []store.Entry{
		{Key: store.Key("v1", "b1"), Val: []byte(`{"v":1}`)},
		{Key: store.Key("v1", "b2"), Val: []byte(`{"v":2}`)},
	}
	if _, err := tiered.PutBatch(entries); err == nil {
		t.Fatal("far batch failure must surface to batch callers")
	}
	if got := tiered.Degraded(); got != 3 {
		t.Fatalf("Degraded=%d after failed batch, want 3", got)
	}

	// Both tiers failing is still a real put error, counted once.
	near.failPuts = true
	st.Put(store.Key("v1", "doomed"), []byte(`{"v":9}`))
	if s := st.Stats(); s.PutErrors != 1 {
		t.Fatalf("both-tier failure: putErrors=%d, want 1", s.PutErrors)
	}
}

// TestPutBatchFallbackNoPhantomAdds is the regression for the per-key
// fallback counting a key as added before the Put that then failed: the
// reported new-key count must include only writes that landed.
func TestPutBatchFallbackNoPhantomAdds(t *testing.T) {
	near := newMapBackend()
	far := newMapBackend() // no batch path: PutBatch falls back per key
	far.failPuts = true
	tiered := store.NewTiered(near, far)

	entries := []store.Entry{
		{Key: store.Key("v1", "a"), Val: []byte(`{"v":1}`)},
		{Key: store.Key("v1", "b"), Val: []byte(`{"v":2}`)},
	}
	added, err := tiered.PutBatch(entries)
	if err == nil {
		t.Fatal("failing far backend must surface an error")
	}
	if added != 0 {
		t.Fatalf("added=%d, want 0: no far write landed, the count is phantom", added)
	}

	// The healthy path still counts new keys exactly once.
	far.failPuts = false
	added, err = tiered.PutBatch(entries)
	if err != nil || added != 2 {
		t.Fatalf("healthy batch: added=%d err=%v, want 2, nil", added, err)
	}
	added, err = tiered.PutBatch(entries)
	if err != nil || added != 0 {
		t.Fatalf("idempotent re-batch: added=%d err=%v, want 0, nil", added, err)
	}
}

// TestTieredLenIsLowerBoundWithoutProbe pins Len as max(near, far), a
// lower bound on the union of disjoint tiers (a near tier primed while the
// fleet store was down, a far tier fed by other workers), read from the
// tiers' own counts: it sends the far tier no presence probe for the near
// keys, however many the near tier holds.
func TestTieredLenIsLowerBoundWithoutProbe(t *testing.T) {
	near, err := store.OpenNDJSON(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	far := newBatchMapBackend()
	tiered := store.NewTiered(near, far)
	defer tiered.Close()

	shared := store.Key("v1", "shared")
	near.Put(shared, []byte(`{"v":0}`))
	far.Put(shared, []byte(`{"v":0}`))
	for i := 0; i < 3; i++ {
		near.Put(store.Key("v1", fmt.Sprintf("near-%d", i)), []byte(`{"v":1}`))
	}
	for i := 0; i < 5; i++ {
		far.Put(store.Key("v1", fmt.Sprintf("far-%d", i)), []byte(`{"v":2}`))
	}
	// near = 4, far = 6, union = 9.
	if got := tiered.Len(); got != 6 {
		t.Fatalf("Len=%d, want max(near, far) = 6", got)
	}
	for i := 3; i < 7; i++ {
		near.Put(store.Key("v1", fmt.Sprintf("near-%d", i)), []byte(`{"v":1}`))
	}
	// near = 8, far = 6, union = 13.
	if got := tiered.Len(); got != 8 {
		t.Fatalf("Len=%d, want max(near, far) = 8", got)
	}
	if far.hasBatches != 0 || far.getBatches != 0 {
		t.Fatalf("Len probed the far tier: %d HasBatch and %d GetBatch calls, want none", far.hasBatches, far.getBatches)
	}
}
