package store_test

import (
	"fmt"
	"testing"

	"repro/internal/store"
)

// BenchmarkStoreGetPut is the local store's hot-path baseline: one Put and
// one Get per iteration through the full LRU+NDJSON stack, over a key
// space larger than the LRU tier so both tiers stay in play. Tracked in
// BENCH_store.json via scripts/bench.sh.
func BenchmarkStoreGetPut(b *testing.B) {
	st, err := store.Open(b.TempDir(), 256)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	const keyspace = 1024
	keys := make([]string, keyspace)
	vals := make([][]byte, keyspace)
	for i := range keys {
		keys[i] = store.Key("bench", i)
		vals[i] = []byte(fmt.Sprintf(`{"sc":%d,"steps":%d}`, i, i*3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % keyspace
		st.Put(keys[j], vals[j])
		if _, ok := st.Get(keys[j]); !ok {
			b.Fatal("own write not visible")
		}
	}
	b.ReportMetric(float64(st.Stats().Puts), "puts")
}
