package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// nowFn is the clock age-based eviction reads; a variable so tests can
// pin it.
var nowFn = time.Now //repro:wallclock record ages drive eviction only, never canonical output

// ndjsonName is the data file inside a store directory.
const ndjsonName = "results.ndjson"

// ndjsonTmpName is the compaction scratch file; a leftover one (a crash
// between writing and renaming) is dead weight and removed at open.
const ndjsonTmpName = ndjsonName + ".tmp"

// record is the wire form of one entry: one JSON object per line, the value
// embedded as raw JSON so the file stays greppable and mergeable with
// standard tools. T is the write time in unix seconds (0 in logs written
// before lifecycles existed — such records never age out).
type record struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
	T int64           `json:"t,omitempty"`
}

// span locates one record line inside the data file, carrying the
// record's write time so age eviction never re-reads the log.
type span struct {
	off int64
	len int64
	t   int64
}

// NDJSON is the file Backend: an append-only newline-delimited JSON log
// with an in-memory key→offset index, so only the index lives in RAM and
// values are read on demand (the LRU tier above absorbs re-reads). Appends
// are serialized under a mutex; reads use ReadAt and need no lock on the
// file. One process owns a directory at a time — concurrent *processes*
// should prime separate directories (sharding) and Merge them, or share a
// remote store.
//
// The log is last-write-wins per key: an overwrite appends a fresh line and
// repoints the index, leaving the old line behind as dead data. Dead lines
// (and dead duplicates found when rebuilding the index at open) are counted
// as superseded, and Compact rewrites the file to shed them.
//
// Robustness: a line that does not parse — a torn final append after a
// crash, hand-editing, version skew — is skipped at open and counted as
// corrupt on read; it can only cause a re-execution, never a wrong result.
type NDJSON struct {
	mu         sync.Mutex
	f          *os.File // after a Compact this fd was born under the scratch name; path stays authoritative
	path       string
	idx        map[string]span
	size       int64
	liveBytes  int64 // bytes of live (indexed) lines; size-liveBytes is reclaimable
	superseded int64 // dead duplicate lines: overwrites + duplicates seen at open
	dead       int64 // unparseable lines skipped at open (reclaimable by Compact)
	deleted    int64 // lines de-indexed by Delete/Evict* since open (reclaimable by Compact)
}

// OpenNDJSON opens (creating if necessary) the NDJSON backend in dir.
func OpenNDJSON(dir string) (*NDJSON, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A stale compaction scratch file means a crash between write and
	// rename; the data file is still authoritative, the scratch is garbage.
	os.Remove(filepath.Join(dir, ndjsonTmpName)) //repro:degrade best-effort cleanup; the next Compact O_TRUNCs it anyway
	path := filepath.Join(dir, ndjsonName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	b := &NDJSON{f: f, path: path, idx: make(map[string]span)}
	if err := b.load(); err != nil {
		f.Close() //repro:degrade open already failed; the load error is the one to surface
		return nil, err
	}
	return b, nil
}

// load scans the data file and rebuilds the index. Later records win, so an
// overwrite (or a merge of overlapping shards) resolves to the last append;
// every earlier duplicate is counted as superseded instead of being
// silently re-indexed. Unparseable lines and a truncated trailing line are
// skipped (and counted as dead).
func (b *NDJSON) load() error {
	r := bufio.NewReaderSize(b.f, 1<<20)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A record is only valid once its newline landed; a torn tail is
			// ignored and overwritten by the next append.
			b.size = off
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: reading %s: %w", b.path, err)
		}
		n := int64(len(line))
		var rec record
		if jerr := json.Unmarshal(line, &rec); jerr == nil && rec.K != "" {
			if old, dup := b.idx[rec.K]; dup {
				b.superseded++
				b.liveBytes -= old.len
			}
			b.idx[rec.K] = span{off: off, len: n, t: rec.T}
			b.liveBytes += n
		} else {
			b.dead++
		}
		off += n
	}
}

// Get implements Backend.
func (b *NDJSON) Get(key string) ([]byte, bool, error) {
	b.mu.Lock()
	sp, ok := b.idx[key]
	f := b.f // Compact may swap the file; read the one the span indexes
	b.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	buf := make([]byte, sp.len)
	if _, err := f.ReadAt(buf, sp.off); err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	var rec record
	if err := json.Unmarshal(buf, &rec); err != nil || rec.K != key {
		return nil, false, fmt.Errorf("store: corrupt entry for %s", key)
	}
	return rec.V, true, nil
}

// Has implements Backend.
func (b *NDJSON) Has(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.idx[key]
	return ok
}

// Put implements Backend, stamping the record with the write time so age
// eviction has something to age.
func (b *NDJSON) Put(key string, val []byte) error {
	now := nowFn().Unix()
	line, err := json.Marshal(record{K: key, V: json.RawMessage(val), T: now})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.f.WriteAt(line, b.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if old, dup := b.idx[key]; dup {
		b.superseded++ // the old line is dead weight until the next Compact
		b.liveBytes -= old.len
	}
	b.idx[key] = span{off: b.size, len: int64(len(line)), t: now}
	b.liveBytes += int64(len(line))
	b.size += int64(len(line))
	return nil
}

// Delete implements Deleter by de-indexing the key: the line stays in the
// log as dead weight until the next Compact, so a crash mid-drain can at
// worst resurrect an extra copy of a content-addressed value, never lose
// one.
func (b *NDJSON) Delete(key string) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sp, ok := b.idx[key]
	if !ok {
		return false, nil
	}
	delete(b.idx, key)
	b.deleted++
	b.liveBytes -= sp.len
	return true, nil
}

// EvictOlderThan de-indexes every record written before cutoff, returning
// the eviction count. Records without a timestamp (logs written before
// lifecycles existed) never age out. Evicted lines are reclaimed by the
// next Compact.
func (b *NDJSON) EvictOlderThan(cutoff time.Time) int {
	c := cutoff.Unix()
	b.mu.Lock()
	defer b.mu.Unlock()
	evicted := 0
	for k, sp := range b.idx {
		if sp.t != 0 && sp.t < c {
			delete(b.idx, k)
			b.deleted++
			b.liveBytes -= sp.len
			evicted++
		}
	}
	return evicted
}

// EvictToSize de-indexes oldest-first records until the live bytes fit
// maxBytes, returning the eviction count. Untimestamped records order
// before timestamped ones (they are oldest by construction), ties by file
// offset. Evicting a result only ever costs its re-execution.
func (b *NDJSON) EvictToSize(maxBytes int64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.liveBytes <= maxBytes {
		return 0
	}
	type aged struct {
		key string
		sp  span
	}
	entries := make([]aged, 0, len(b.idx))
	for k, sp := range b.idx {
		entries = append(entries, aged{k, sp})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].sp.t != entries[j].sp.t {
			return entries[i].sp.t < entries[j].sp.t
		}
		return entries[i].sp.off < entries[j].sp.off
	})
	evicted := 0
	for _, e := range entries {
		if b.liveBytes <= maxBytes {
			break
		}
		delete(b.idx, e.key)
		b.deleted++
		b.liveBytes -= e.sp.len
		evicted++
	}
	return evicted
}

// SizeBytes returns the log's total size on disk, dead weight included.
func (b *NDJSON) SizeBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size
}

// DeadBytes returns the reclaimable bytes: the log size minus the live
// lines. The stored lifecycle compacts when this crosses a fraction of
// the file.
func (b *NDJSON) DeadBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size - b.liveBytes
}

// ForEach implements Backend, visiting entries in ascending key order, so
// everything built by iterating a backend — merge logs, drain batches,
// snapshot listings — is a pure function of the live contents, not of Go's
// randomized map order.
func (b *NDJSON) ForEach(fn func(key string, val []byte) error) error {
	b.mu.Lock()
	keys := make([]string, 0, len(b.idx))
	for k := range b.idx {
		keys = append(keys, k)
	}
	b.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		v, ok, err := b.Get(k)
		if err != nil || !ok {
			continue // corrupt entries are misses everywhere, merges included
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Backend.
func (b *NDJSON) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.idx)
}

// Keys returns the live key set from the in-memory index, sorted — no
// values are read. Store.Keys serves it to the migrator (DrainStore).
func (b *NDJSON) Keys() []string {
	b.mu.Lock()
	keys := make([]string, 0, len(b.idx))
	for k := range b.idx {
		keys = append(keys, k)
	}
	b.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Superseded returns the number of known-dead duplicate lines in the log
// (overwrites since open plus duplicates found while rebuilding the index).
func (b *NDJSON) Superseded() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.superseded
}

// Compact implements Compactor: it rewrites the log keeping only the live
// record per key, in stable (file-offset) order, and atomically renames the
// rewrite into place — a crash at any point leaves either the old complete
// file or the new complete file, never a torn mix (the scratch file a crash
// strands is removed at the next open). Records that fail validation on
// read-back are dropped like the corrupt misses they already were. Safe
// against concurrent Get/Put/Has on the same backend: the swap happens
// under the mutex, and a reader that raced the swap holds the old file
// handle, whose close turns its read into an ordinary counted miss.
func (b *NDJSON) Compact() (kept, dropped int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()

	path := b.path
	tmpPath := filepath.Join(filepath.Dir(path), ndjsonTmpName)
	// O_RDWR: after the rename this very descriptor becomes the backend's
	// data file (a rename never invalidates an open fd), so there is no
	// reopen window in which a failure could leave the backend writing to
	// the unlinked old inode.
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) //repro:degrade no-op after a successful rename; a stranded scratch is removed at next open

	// Stable rewrite order: live records by their current file offset, so
	// compacting is a pure function of the log's live contents.
	type liveEntry struct {
		key string
		sp  span
	}
	live := make([]liveEntry, 0, len(b.idx))
	for k, sp := range b.idx {
		live = append(live, liveEntry{k, sp})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].sp.off < live[j].sp.off })

	w := bufio.NewWriterSize(tmp, 1<<20)
	newIdx := make(map[string]span, len(live))
	var off int64
	for _, e := range live {
		buf := make([]byte, e.sp.len)
		if _, rerr := b.f.ReadAt(buf, e.sp.off); rerr != nil {
			dropped++
			continue
		}
		var rec record
		if jerr := json.Unmarshal(buf, &rec); jerr != nil || rec.K != e.key {
			dropped++
			continue
		}
		if _, werr := w.Write(buf); werr != nil {
			tmp.Close() //repro:degrade compact already failed; the write error is the one to surface
			return 0, 0, fmt.Errorf("store: compact: %w", werr)
		}
		newIdx[e.key] = span{off: off, len: e.sp.len, t: e.sp.t}
		off += e.sp.len
		kept++
	}
	if err := w.Flush(); err != nil {
		tmp.Close() //repro:degrade compact already failed; the flush error is the one to surface
		return 0, 0, fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //repro:degrade compact already failed; the sync error is the one to surface
		return 0, 0, fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		tmp.Close() //repro:degrade compact already failed; the rename error is the one to surface
		return 0, 0, fmt.Errorf("store: compact: %w", err)
	}
	dropped += int(b.superseded) + int(b.dead) + int(b.deleted)
	b.f.Close() //repro:degrade the old unlinked fd; its data was fully rewritten and renamed over
	b.f = tmp   // now named `path`; the fd survived the rename
	b.idx = newIdx
	b.size = off
	b.liveBytes = off
	b.superseded = 0
	b.dead = 0
	b.deleted = 0
	return kept, dropped, nil
}

// Close implements Backend.
func (b *NDJSON) Close() error { return b.f.Close() }
