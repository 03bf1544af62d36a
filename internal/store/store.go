// Package store is a content-addressed result store for the deterministic
// simulation jobs of internal/runner: pure job values in, their measured
// results out, keyed by a canonical hash of the job plus a code-version
// salt. It is what makes re-runs incremental (a warm cache re-simulates
// nothing), searches memoized (duplicate candidate genomes are free), and
// sweeps shardable across processes (each process primes its slice of the
// key space into its own store; Merge folds the shards back together).
//
// Architecture: a Store is an in-memory LRU tier in front of a Backend.
// The LRU holds decoded values for the hot working set; the Backend is the
// durable tier — the shipped implementation appends NDJSON records to a
// file and keeps only a key→offset index in memory, so a store can hold far
// more results than RAM. The Backend interface is deliberately tiny so
// later scale steps can add remote or multi-backend sinks without touching
// any caller.
//
// Failure discipline: a cache can only ever cost a re-computation, never an
// answer. Corrupt or unreadable entries are misses (counted in
// Stats.Corrupt), and write failures degrade the store to memory-only
// (counted in Stats.PutErrors); no cache pathology is ever surfaced as an
// error to the simulation. Staleness is impossible by construction: every
// key is derived from a code-version salt (runner.CacheVersion), so results
// written by an older simulation semantics live under keys a newer binary
// never asks for.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Backend is the durable tier behind a Store. Implementations must be safe
// for concurrent use by multiple goroutines of one process. (Multiple
// processes should not share one file-backed backend; give each shard its
// own directory and fold them together with Merge, or point every process
// at one remote backend, which is built for exactly that.)
//
// Write semantics are per-key last-write-wins: Put overwrites any previous
// value, and when several writers race on one key the final state is
// whichever write landed last. That rule is safe here — and only here —
// because keys are content addresses: two correct writers of the same key
// computed the same bytes, so the order of their writes cannot change what
// a reader observes. A backend that sees differing bytes rewrite a key is
// watching a bug (or a missed CacheVersion bump) and should count it as a
// conflict rather than try to arbitrate.
type Backend interface {
	// Get returns the stored value for key. ok is false on any miss,
	// including corrupt or unreadable entries; err is reserved for
	// infrastructure failures worth counting, which are still misses.
	Get(key string) (val []byte, ok bool, err error)
	// Put durably stores val under key, overwriting any previous value
	// (last-write-wins; see the interface comment).
	Put(key string, val []byte) error
	// Has reports whether key is present, without reading the value.
	Has(key string) bool
	// ForEach visits every stored entry (used by Merge).
	ForEach(fn func(key string, val []byte) error) error
	// Len returns the number of stored entries.
	Len() int
	// Close releases the backend's resources.
	Close() error
}

// Stats counts a Store's traffic. A hit means a result was served without
// re-execution; every miss corresponds to one execution the caller had to
// perform. Corrupt counts entries that existed but could not be decoded
// (served as misses); PutErrors counts failed durable writes (the value
// stays available in the LRU tier); Superseded counts writes of a key that
// was already stored — dead duplicate log lines found at open, overwriting
// Puts, and Merge sources skipped because the destination already held the
// key. Superseded entries are expected (last-write-wins over content
// addresses), but a growing count is the signal to Compact. Degraded
// counts partial write placements the composite backends would otherwise
// hide — a Tiered far-tier write that failed while the near tier landed, a
// write sub-batch a down Router replica never took — so a fleet run that
// silently wrote nothing remote is visible on the stats line instead of
// succeeding. Read-path failures are not degradation; they already count
// as misses.
type Stats struct {
	Hits, Misses, Puts, Corrupt, PutErrors, Superseded, Degraded int64
	// Blob tier traffic (zero without one): payloads stored and fetched,
	// and raw payload bytes moved in both directions.
	BlobStored, BlobFetched, BlobBytes int64
}

// String renders the stats on one line (the form the CLIs print to stderr
// and CI greps: a warm run must report misses=0). New fields append at the
// end — CI patterns anchor on the existing prefix.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d stored=%d superseded=%d corrupt=%d putErrors=%d degraded=%d blobStored=%d blobFetched=%d blobBytes=%d",
		s.Hits, s.Misses, s.Puts, s.Superseded, s.Corrupt, s.PutErrors, s.Degraded, s.BlobStored, s.BlobFetched, s.BlobBytes)
}

// Entry is one key/value pair of a batch operation.
type Entry struct {
	Key string
	Val []byte
}

// BatchBackend is optionally implemented by backends that can serve many
// keys in one round trip — the remote client turns a GetBatch into a single
// gzipped /v1/mget instead of hundreds of point requests. Local file
// backends do not bother: their per-key calls are already cheap.
type BatchBackend interface {
	Backend
	// GetBatch returns the stored values for every key it finds; absent
	// keys are simply missing from the returned map. A batch failure
	// returns an error and callers fall back to per-key Gets.
	GetBatch(keys []string) (map[string][]byte, error)
	// PutBatch stores every entry (last-write-wins, like Put) and reports
	// how many keys were new to the backend.
	PutBatch(entries []Entry) (added int, err error)
}

// HasBatcher is optionally implemented by backends that can answer many
// presence probes in one round trip (the remote client's /v1/mhas): prime
// passes ask "which of these exist?" for whole fan-outs, and values would
// be wasted bytes on the wire.
type HasBatcher interface {
	// HasBatch reports presence for every key; keys absent from the map
	// are absent from the backend.
	HasBatch(keys []string) (map[string]bool, error)
}

// Compactor is optionally implemented by backends whose storage layout
// accumulates dead data — the NDJSON log appends a duplicate line on every
// overwrite — and can be rewritten to hold only the live record per key.
type Compactor interface {
	// Compact rewrites the backend's storage keeping only live entries,
	// returning the number of live entries kept and dead records dropped.
	Compact() (kept, dropped int, err error)
}

// superseder is optionally implemented by backends that track dead
// duplicate records (see Stats.Superseded).
type superseder interface {
	Superseded() int64
}

// degrader is optionally implemented by composite backends (Tiered,
// Router) that can partially fail a write — landing a value in some tiers
// or replicas but not others — and count those degraded write placements
// (see Stats.Degraded). Read-path failures are not degradation: they are
// already visible as misses.
type degrader interface {
	Degraded() int64
}

// placer is optionally implemented by composite backends (Tiered, Router)
// that can report batch write placement more precisely than the
// all-or-nothing BatchBackend surface: lost counts the entries known to
// have landed nowhere, which is what loss accounting needs — added alone
// cannot distinguish a failed write from a successful overwrite.
type placer interface {
	putBatchPlaced(entries []Entry) (added, lost int, err error)
}

// keyLister is optionally implemented by backends whose key set is cheap
// to enumerate without touching values (the NDJSON index). Tiered.Len uses
// it to count the exact union of disjoint tiers, and the migrator
// enumerates a draining replica's keys through it.
type keyLister interface {
	Keys() []string
}

// Deleter is optionally implemented by backends that can drop a key — the
// migrator's push-then-delete handoff needs it: a drained key is deleted
// from its old owner only after the new owner acknowledged the write, so
// at every instant the key is readable somewhere.
type Deleter interface {
	// Delete drops key, reporting whether it was present. Deleting an
	// absent key is a no-op (drains are idempotent).
	Delete(key string) (existed bool, err error)
}

// grouper is optionally implemented by placement-aware backends (Router)
// that spread keys across disjoint groups: GroupOf names the group owning
// a key, Groups the group count. Merge uses it to accumulate per-owner
// batches, so a shard-directory push travels as full per-replica PutBatch
// calls instead of every chunk fanning out to every replica.
type grouper interface {
	GroupOf(key string) int
	Groups() int
}

// Store is the two-tier content-addressed result store. Safe for concurrent
// use from a worker pool.
type Store struct {
	mu sync.Mutex
	//repro:guardedby mu
	lru *lruCache
	be  Backend // nil for a memory-only store

	// blobs is the optional trace-payload tier (see blob.go); set once at
	// mount, before concurrent use.
	blobs BlobBackend

	hits, misses, puts, corrupt, putErrors, superseded atomic.Int64
	blobStored, blobFetched, blobBytes                 atomic.Int64
}

// DefaultLRUEntries is the LRU tier's capacity when the caller passes 0.
const DefaultLRUEntries = 1 << 16

// New assembles a store from an LRU capacity (entries; 0 selects
// DefaultLRUEntries) and an optional backend (nil for memory-only).
func New(lruEntries int, be Backend) *Store {
	if lruEntries <= 0 {
		lruEntries = DefaultLRUEntries
	}
	return &Store{lru: newLRU(lruEntries), be: be}
}

// Open opens (creating if necessary) the NDJSON-backed store in dir.
func Open(dir string, lruEntries int) (*Store, error) {
	be, err := OpenNDJSON(dir)
	if err != nil {
		return nil, err
	}
	return New(lruEntries, be), nil
}

// NewMemory returns a backend-less store: pure in-process memoization,
// bounded by the LRU capacity.
func NewMemory(lruEntries int) *Store { return New(lruEntries, nil) }

// Get returns the value stored under key. Any failure to produce a decoded
// value — absent key, corrupt entry, unreadable backend — is a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil || key == "" {
		return nil, false
	}
	s.mu.Lock()
	v, ok := s.lru.get(key)
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
		return v, true
	}
	if s.be != nil {
		v, ok, err := s.be.Get(key)
		if err != nil {
			s.corrupt.Add(1)
		}
		if ok {
			s.mu.Lock()
			s.lru.put(key, v)
			s.mu.Unlock()
			s.hits.Add(1)
			return v, true
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Peek returns the value stored under key without touching the hit/miss
// books — for infrastructure reads (the remote server's overwrite conflict
// check) that would otherwise masquerade as cache traffic in Stats.
// Backend read failures simply read as absent.
func (s *Store) Peek(key string) ([]byte, bool) {
	if s == nil || key == "" {
		return nil, false
	}
	s.mu.Lock()
	v, ok := s.lru.get(key)
	s.mu.Unlock()
	if ok {
		return v, true
	}
	if s.be != nil {
		if v, ok, _ := s.be.Get(key); ok { //repro:degrade a failed infrastructure read is an absent key, and must not skew Stats
			return v, true
		}
	}
	return nil, false
}

// Has reports whether key is present in either tier, without counting a hit
// or a miss (used by prime passes to decide what still needs executing).
func (s *Store) Has(key string) bool {
	if s == nil || key == "" {
		return false
	}
	s.mu.Lock()
	_, ok := s.lru.get(key)
	s.mu.Unlock()
	if ok {
		return true
	}
	return s.be != nil && s.be.Has(key)
}

// Put stores val under key in both tiers. Durable-write failures are
// counted and otherwise ignored: the store degrades to memory-only rather
// than failing the computation that produced the value.
func (s *Store) Put(key string, val []byte) {
	if s == nil || key == "" {
		return
	}
	s.putResident(key, val)
	if s.be != nil {
		if err := s.be.Put(key, val); err != nil {
			s.putErrors.Add(1)
		}
	}
}

// putResident is the write both paths share — the synchronous Put above
// and the buffered WriteBuffer.Put: the value becomes LRU-resident (warm
// for in-process reads) and counted, durability handled by the caller.
func (s *Store) putResident(key string, val []byte) {
	s.mu.Lock()
	s.lru.put(key, val)
	s.mu.Unlock()
	s.puts.Add(1)
}

// Batched reports whether the backend can serve batch lookups in one round
// trip; callers use it to decide whether computing a fan-out's keys up
// front for Prefetch is worth anything.
func (s *Store) Batched() bool {
	if s == nil {
		return false
	}
	_, ok := s.be.(BatchBackend)
	return ok
}

// ProbeBatched reports whether the backend can answer batched presence
// probes; callers use it to decide whether computing a fan-out's keys up
// front for Present is worth anything.
func (s *Store) ProbeBatched() bool {
	if s == nil {
		return false
	}
	_, ok := s.be.(HasBatcher)
	return ok
}

// prefetchChunk bounds the number of keys per backend batch round trip so
// request bodies stay small however large the fan-out is.
const prefetchChunk = 512

// Prefetch warms the LRU tier with the given keys in as few backend round
// trips as the backend allows: a whole sweep's lookups become one gzipped
// mget against a remote store instead of one request per job. Keys already
// resident, keys absent from the backend, and batch failures all degrade
// silently to the per-key path — a prefetch can only save round trips,
// never change a result — and nothing is counted as a hit or miss here;
// the per-key Gets that follow do the counting.
//
// The returned set holds every key now known present (resident before or
// fetched by the batch); nil when the backend has no batch path. Callers
// that want presence without moving values use Present instead.
func (s *Store) Prefetch(keys []string) map[string]bool {
	if s == nil {
		return nil
	}
	bb, ok := s.be.(BatchBackend)
	if !ok {
		return nil
	}
	present := make(map[string]bool, len(keys))
	var missing []string
	s.mu.Lock()
	for _, k := range keys {
		if k == "" {
			continue
		}
		if _, resident := s.lru.get(k); resident {
			present[k] = true
		} else {
			missing = append(missing, k)
		}
	}
	s.mu.Unlock()
	for len(missing) > 0 {
		chunk := missing
		if len(chunk) > prefetchChunk {
			chunk = chunk[:prefetchChunk]
		}
		missing = missing[len(chunk):]
		vals, err := bb.GetBatch(chunk)
		if err != nil {
			return present // per-key Gets will retry (and count) each failure
		}
		s.mu.Lock()
		for k, v := range vals { //repro:unordered LRU insertion order only shifts eviction priority, never a result
			s.lru.put(k, v)
			present[k] = true
		}
		s.mu.Unlock()
	}
	return present
}

// Present returns the set of the given keys known present, answered from
// the LRU tier plus batched backend probes — no values move and nothing
// is counted as a hit or miss. Returns nil when the backend cannot batch
// presence probes; callers fall back to per-key Has. Prime passes use it
// to decide what a whole fan-out still needs to execute in one round
// trip. A batch failure leaves the remaining keys out of the set, which
// reads as absent — re-executing a present unit is safe, its identical
// bytes deduplicate.
func (s *Store) Present(keys []string) map[string]bool {
	if s == nil {
		return nil
	}
	hb, ok := s.be.(HasBatcher)
	if !ok {
		return nil
	}
	present := make(map[string]bool, len(keys))
	var missing []string
	s.mu.Lock()
	for _, k := range keys {
		if k == "" {
			continue
		}
		if _, resident := s.lru.get(k); resident {
			present[k] = true
		} else {
			missing = append(missing, k)
		}
	}
	s.mu.Unlock()
	for len(missing) > 0 {
		chunk := missing
		if len(chunk) > prefetchChunk {
			chunk = chunk[:prefetchChunk]
		}
		missing = missing[len(chunk):]
		m, err := hb.HasBatch(chunk)
		if err != nil {
			return present
		}
		for k, ok := range m {
			if ok {
				present[k] = true
			}
		}
	}
	return present
}

// Compact rewrites the backend's storage keeping only the live record per
// key (see Compactor). Backends without dead data to reclaim report their
// live count and zero dropped.
func (s *Store) Compact() (kept, dropped int, err error) {
	if s == nil || s.be == nil {
		return 0, 0, nil
	}
	if c, ok := s.be.(Compactor); ok {
		return c.Compact()
	}
	return s.be.Len(), 0, nil
}

// Len returns the number of durable entries (LRU-only for memory stores).
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	if s.be != nil {
		return s.be.Len()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.len()
}

// Keys returns the backend's live key set when it is cheap to enumerate
// (keyLister: the NDJSON index), nil otherwise. The migrator uses it to
// find a draining replica's no-longer-owned slice without reading values.
func (s *Store) Keys() []string {
	if s == nil {
		return nil
	}
	if kl, ok := s.be.(keyLister); ok {
		return kl.Keys()
	}
	return nil
}

// Delete drops key from both tiers, reporting whether the durable tier
// held it. Backends without Deleter keep their entry (only the LRU copy
// goes), so a drain over such a backend copies keys instead of handing
// them off: remote.DrainStore counts only the deletions that happened.
func (s *Store) Delete(key string) (bool, error) {
	if s == nil || key == "" {
		return false, nil
	}
	s.mu.Lock()
	s.lru.delete(key)
	s.mu.Unlock()
	if d, ok := s.be.(Deleter); ok {
		return d.Delete(key)
	}
	return false, nil
}

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Corrupt:     s.corrupt.Load(),
		PutErrors:   s.putErrors.Load(),
		Superseded:  s.superseded.Load(),
		BlobStored:  s.blobStored.Load(),
		BlobFetched: s.blobFetched.Load(),
		BlobBytes:   s.blobBytes.Load(),
	}
	if sp, ok := s.be.(superseder); ok {
		st.Superseded += sp.Superseded()
	}
	if d, ok := s.be.(degrader); ok {
		st.Degraded += d.Degraded()
	}
	return st
}

// Close closes the backend and the blob tier, if any. A blob tier that is
// the backend itself (a remote client serving both surfaces) closes once.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	var berr, blerr error
	if s.be != nil {
		berr = s.be.Close()
	}
	if c, ok := s.blobs.(io.Closer); ok && any(s.blobs) != any(s.be) {
		blerr = c.Close()
	}
	return errors.Join(berr, blerr)
}

// openMergeSrc opens one merge source directory; a variable so tests can
// inject failing sources (like nowFn for the clock).
var openMergeSrc = func(dir string) (Backend, error) { return OpenNDJSON(dir) }

// Merge folds every entry of the NDJSON stores in dirs into s (the shard
// fold: m processes prime disjoint key slices into their own directories,
// then one process merges them and replays the whole sweep from cache —
// or, with a remote backend, pushes a local shard store up to the fleet
// store). Keys already present in s are kept as-is and counted as
// superseded — entries are content-addressed, so a duplicate key carries
// an identical value. When the backend supports batching, entries travel
// in PutBatch chunks instead of one Put per key; when it is also
// placement-aware (grouper — the Router), entries accumulate in
// per-owner buffers so each flush is one full batch straight to one
// replica rather than every chunk fanning out across the fleet. Returns
// the number of entries added.
func (s *Store) Merge(dirs ...string) (int, error) {
	bb, batched := s.be.(BatchBackend)
	added := 0
	for _, dir := range dirs {
		src, err := openMergeSrc(dir)
		if err != nil {
			return added, fmt.Errorf("store: merge %s: %w", dir, err)
		}
		if batched {
			groups := 1
			groupOf := func(string) int { return 0 }
			if g, ok := s.be.(grouper); ok && g.Groups() > 1 {
				groups, groupOf = g.Groups(), g.GroupOf
			}
			chunks := make([][]Entry, groups)
			flush := func(gi int) error {
				chunk := chunks[gi]
				if len(chunk) == 0 {
					return nil
				}
				n, err := bb.PutBatch(chunk)
				if err != nil {
					return err
				}
				added += n
				s.puts.Add(int64(n))
				s.superseded.Add(int64(len(chunk) - n))
				chunks[gi] = chunk[:0]
				return nil
			}
			err = src.ForEach(func(key string, val []byte) error {
				gi := groupOf(key)
				chunks[gi] = append(chunks[gi], Entry{Key: key, Val: val})
				if len(chunks[gi]) >= prefetchChunk {
					return flush(gi)
				}
				return nil
			})
			if err == nil {
				for gi := range chunks {
					if err = flush(gi); err != nil {
						break
					}
				}
			}
		} else {
			err = src.ForEach(func(key string, val []byte) error {
				if s.Has(key) {
					s.superseded.Add(1)
					return nil
				}
				s.Put(key, val)
				added++
				return nil
			})
		}
		cerr := src.Close()
		if err != nil {
			return added, fmt.Errorf("store: merge %s: %w", dir, err)
		}
		if cerr != nil {
			return added, fmt.Errorf("store: merge %s: close: %w", dir, cerr)
		}
	}
	return added, nil
}

// Key returns the content address of a cacheable unit: the hex SHA-256 of
// the code-version salt and the canonical JSON encoding of v. Callers pass
// pure value types (structs of strings, ints and slices — never maps or
// pointers to mutable state), whose JSON encoding is deterministic, so the
// same logical job always lands on the same key in every process. An
// unencodable v returns "", which every consumer treats as "uncacheable".
func Key(salt string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(salt)) //repro:degrade hash.Hash.Write is documented to never error
	h.Write([]byte{0})    //repro:degrade hash.Hash.Write is documented to never error
	h.Write(b)            //repro:degrade hash.Hash.Write is documented to never error
	return hex.EncodeToString(h.Sum(nil))
}

// ParseShard parses the CLI shard notation "i/m" (1-based i, e.g. "2/3")
// into a 0-based shard index and shard count. The whole string must be
// consumed — "1/2x" or "1/2/3" are rejected, not silently truncated, so a
// typoed split fails loudly instead of mispriming the key space.
func ParseShard(s string) (index, count int, err error) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("store: bad shard %q: want i/m, e.g. 1/3", s)
	}
	i, err1 := strconv.Atoi(a)
	m, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("store: bad shard %q: want i/m, e.g. 1/3", s)
	}
	if m < 1 || i < 1 || i > m {
		return 0, 0, fmt.Errorf("store: bad shard %q: need 1 <= i <= m", s)
	}
	return i - 1, m, nil
}

// GetJSON fetches and decodes the value stored under key. Decode failures
// are corrupt entries: counted, reported as a miss, never an error.
func GetJSON[T any](s *Store, key string) (T, bool) {
	var v T
	b, ok := s.Get(key)
	if !ok {
		return v, false
	}
	if err := json.Unmarshal(b, &v); err != nil {
		s.corrupt.Add(1)
		s.hits.Add(-1) // reclassify: the raw bytes hit, the value did not
		s.misses.Add(1)
		var zero T
		return zero, false
	}
	return v, true
}

// PutJSON encodes v and stores it under key through any write surface — a
// Store for synchronous per-key writes, a WriteBuffer for batched ones.
// Unencodable values are dropped (the job simply stays uncached).
func PutJSON[T any](p Putter, key string, v T) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	p.Put(key, b)
}
