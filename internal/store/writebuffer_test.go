package store_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestWriteBufferBatchesAndFlushes pins the buffered write path: values
// are readable in-process immediately, nothing reaches the backend until
// the flush barrier, and the flush is one PutBatch — not one write per
// key.
func TestWriteBufferBatchesAndFlushes(t *testing.T) {
	be := newBatchMapBackend()
	st := store.New(0, be)
	defer st.Close()
	wb := store.NewWriteBuffer(st)

	keys := make([]string, 5)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		wb.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	for i, k := range keys {
		if v, ok := st.Get(k); !ok || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("buffered key %d unreadable in-process: %q ok=%v", i, v, ok)
		}
	}
	if be.Len() != 0 {
		t.Fatalf("backend saw %d writes before the flush barrier", be.Len())
	}
	wb.Flush()
	if be.Len() != len(keys) {
		t.Fatalf("backend holds %d entries after flush, want %d", be.Len(), len(keys))
	}
	if len(be.putBatches) != 1 || be.putBatches[0] != len(keys) {
		t.Fatalf("flush issued batches %v, want one batch of %d", be.putBatches, len(keys))
	}
	if s := st.Stats(); s.Puts != int64(len(keys)) || s.PutErrors != 0 {
		t.Fatalf("stats %+v, want puts=%d putErrors=0", s, len(keys))
	}
	// An empty flush is a no-op, not an empty request.
	wb.Flush()
	wb.Flush()
	if len(be.putBatches) != 1 {
		t.Fatalf("empty flushes issued batches: %v", be.putBatches)
	}
}

// TestWriteBufferAutoFlushAtCapacity pins the size bound: the buffer
// cannot grow past DefaultWriteBufferEntries, it flushes a full chunk and
// keeps going.
func TestWriteBufferAutoFlushAtCapacity(t *testing.T) {
	be := newBatchMapBackend()
	st := store.New(0, be)
	defer st.Close()
	wb := store.NewWriteBuffer(st)

	const c = store.DefaultWriteBufferEntries
	for i := 0; i < 2*c+1; i++ {
		wb.Put(store.Key("v1", i), []byte(`{"v":1}`))
	}
	wb.Flush()
	if got, want := fmt.Sprint(be.putBatches), fmt.Sprint([]int{c, c, 1}); got != want {
		t.Fatalf("batch sizes %v, want %s (two full chunks, one tail)", be.putBatches, want)
	}
	if be.Len() != 2*c+1 {
		t.Fatalf("backend holds %d entries, want %d", be.Len(), 2*c+1)
	}
}

// TestWriteBufferFailedFlushDegrades pins the failure discipline: a failed
// flush counts its lost writes in PutErrors and the values stay served
// from the LRU tier — memory-only degradation, exactly like a failed
// synchronous Put.
func TestWriteBufferFailedFlushDegrades(t *testing.T) {
	be := newMapBackend()
	be.failPuts = true
	st := store.New(0, be)
	defer st.Close()
	wb := store.NewWriteBuffer(st)

	keys := make([]string, 3)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		wb.Put(keys[i], []byte(`{"v":1}`))
	}
	wb.Flush()
	s := st.Stats()
	if s.PutErrors != int64(len(keys)) {
		t.Fatalf("putErrors=%d, want %d (every buffered write lost)", s.PutErrors, len(keys))
	}
	if !strings.Contains(s.String(), "putErrors=3") {
		t.Fatalf("stats line must surface the loss: %s", s)
	}
	for i, k := range keys {
		if _, ok := st.Get(k); !ok {
			t.Fatalf("key %d lost from the LRU tier after failed flush", i)
		}
	}
	if be.Len() != 0 {
		t.Fatalf("failing backend stored %d entries", be.Len())
	}
}

// TestWriteBufferMemoryOnlyStore pins that a backend-less store needs no
// flush: puts land in the LRU and the buffer stays empty.
func TestWriteBufferMemoryOnlyStore(t *testing.T) {
	st := store.NewMemory(8)
	defer st.Close()
	wb := store.NewWriteBuffer(st)
	k := store.Key("v1", "mem")
	wb.Put(k, []byte(`{"v":1}`))
	wb.Flush()
	if v, ok := st.Get(k); !ok || string(v) != `{"v":1}` {
		t.Fatalf("memory-only buffered put unreadable: %q ok=%v", v, ok)
	}
}
