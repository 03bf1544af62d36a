package store

import "sync"

// DefaultWriteBufferEntries is a WriteBuffer's flush threshold, matched to
// prefetchChunk so write bodies stay the same size as read bodies.
const DefaultWriteBufferEntries = prefetchChunk

// Putter is the write surface shared by Store and WriteBuffer, so the JSON
// helpers (PutJSON) and the cached engine's hot path work against either:
// a synchronous per-key write, or a buffered one that travels in batches.
type Putter interface {
	// Put stores val under key; failures degrade (and are counted), never
	// surface.
	Put(key string, val []byte)
}

// WriteBuffer batches a Store's durable writes: Put lands in the LRU tier
// immediately (in-process reads see the value at once) while the backend
// write is deferred into a bounded buffer that flushes as one PutBatch per
// DefaultWriteBufferEntries — against a remote or routed backend, one
// gzipped mput per fan-out instead of one synchronous round trip per
// executed unit. This is the write-side mirror of Store.Prefetch.
//
// The caller owns the flush barrier: Flush must run before the
// process needs the writes durable or visible to other processes — the
// cached engine flushes at the end of every fan-out, so a fan-out's folds
// and any following fan-out observe exactly what synchronous writes would
// have produced. A flush failure degrades like a failed Put: the values
// stay served from the LRU tier, the loss is counted in Stats.PutErrors,
// and nothing surfaces as an error into the simulation.
//
// Safe for concurrent use by a worker pool; Flush may run concurrently
// with Put (the in-flight chunk is snapshotted out under the lock).
type WriteBuffer struct {
	st *Store

	mu      sync.Mutex
	pending []Entry
}

// NewWriteBuffer returns a buffered write path into st flushing every
// DefaultWriteBufferEntries writes.
func NewWriteBuffer(st *Store) *WriteBuffer {
	return &WriteBuffer{st: st}
}

// Put implements Putter: the value is resident (LRU) and counted
// immediately, the durable write deferred until the buffer fills or Flush
// runs. Memory-only stores have nothing to defer.
func (w *WriteBuffer) Put(key string, val []byte) {
	if key == "" {
		return
	}
	w.st.putResident(key, val)
	if w.st.be == nil {
		return
	}
	var full []Entry
	w.mu.Lock()
	w.pending = append(w.pending, Entry{Key: key, Val: val})
	if len(w.pending) >= DefaultWriteBufferEntries {
		full = w.pending
		w.pending = nil
	}
	w.mu.Unlock()
	w.st.flushEntries(full)
}

// Flush drains every pending write in one backend batch (per-key writes
// when the backend cannot batch). Failures are counted, not returned — see
// the type comment.
func (w *WriteBuffer) Flush() {
	w.mu.Lock()
	chunk := w.pending
	w.pending = nil
	w.mu.Unlock()
	w.st.flushEntries(chunk)
}

// flushEntries pushes a buffered chunk to the backend through its batch
// path. A failed flush counts one PutError per entry that landed nowhere
// (composite backends report placement exactly — an entry a Tiered near
// tier absorbed is durable, not a put error); the lost values remain
// served from the LRU tier, the memory-only degradation of a failed
// synchronous Put.
func (s *Store) flushEntries(entries []Entry) {
	if len(entries) == 0 || s.be == nil {
		return
	}
	if _, lost, _ := putBatch(s.be, entries); lost > 0 { //repro:degrade counted: every entry that landed nowhere becomes a PutError
		s.putErrors.Add(int64(lost))
	}
}
