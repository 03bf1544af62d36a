package remote_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/remote"
	"repro/internal/store"
)

// BenchmarkRemoteMGet is the fleet store's batch hot path over local
// loopback: one gzipped /v1/mget round trip fetching a whole sweep's worth
// of keys per iteration. ns/op here is the latency a warm remote replay
// pays per fan-out instead of per job. Tracked in BENCH_store.json via
// scripts/bench.sh.
func BenchmarkRemoteMGet(b *testing.B) {
	authoritative, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer authoritative.Close()
	ts := httptest.NewServer(remote.NewServer(authoritative))
	defer ts.Close()
	cl, err := remote.NewClient(ts.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	const batch = 256
	keys := make([]string, batch)
	for i := range keys {
		keys[i] = store.Key("bench", i)
		authoritative.Put(keys[i], []byte(fmt.Sprintf(`{"sc":%d,"steps":%d}`, i, i*3)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.GetBatch(keys)
		if err != nil || len(got) != batch {
			b.Fatalf("mget: %d entries, err=%v", len(got), err)
		}
	}
	b.ReportMetric(batch, "keys/op")
}

// BenchmarkRemoteMPut is the write-side batch hot path: one gzipped
// /v1/mput round trip carrying a whole fan-out's executed results — the
// flush a WriteBuffer issues at the fan-out barrier. ns/op divided by
// keys/op is the per-result write cost a buffered prime pass pays, against
// BenchmarkRemotePut's per-point-put baseline. The batch re-puts identical
// entries, which the server's idempotent-rewrite path drops without
// growing its log, so the measure is steady-state. Tracked in
// BENCH_store.json via scripts/bench.sh.
func BenchmarkRemoteMPut(b *testing.B) {
	authoritative, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer authoritative.Close()
	ts := httptest.NewServer(remote.NewServer(authoritative))
	defer ts.Close()
	cl, err := remote.NewClient(ts.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	const batch = 256
	entries := make([]store.Entry, batch)
	for i := range entries {
		entries[i] = store.Entry{
			Key: store.Key("bench", i),
			Val: []byte(fmt.Sprintf(`{"sc":%d,"steps":%d}`, i, i*3)),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.PutBatch(entries); err != nil {
			b.Fatalf("mput: %v", err)
		}
	}
	b.ReportMetric(batch, "keys/op")
}

// BenchmarkRemotePut is the point-write counterpart: the synchronous
// round trip every executed unit paid before write buffering (the ratio to
// BenchmarkRemoteMPut's per-key cost is the whole argument for the
// buffered prime path).
func BenchmarkRemotePut(b *testing.B) {
	authoritative, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer authoritative.Close()
	ts := httptest.NewServer(remote.NewServer(authoritative))
	defer ts.Close()
	cl, err := remote.NewClient(ts.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	k := store.Key("bench", 1)
	val := []byte(`{"sc":1}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Put(k, val); err != nil {
			b.Fatalf("put: %v", err)
		}
	}
}

// BenchmarkRemoteGet is the point-lookup counterpart: what each job would
// pay without batching (the ratio to BenchmarkRemoteMGet's per-key cost is
// the whole argument for the prefetch path).
func BenchmarkRemoteGet(b *testing.B) {
	authoritative, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer authoritative.Close()
	ts := httptest.NewServer(remote.NewServer(authoritative))
	defer ts.Close()
	cl, err := remote.NewClient(ts.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	k := store.Key("bench", 1)
	authoritative.Put(k, []byte(`{"sc":1}`))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := cl.Get(k); !ok || err != nil {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}
