package store

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
)

// Blob tier: content-addressed opaque payloads riding next to the result
// tier. Results are small JSON values the LRU fronts; blobs are whole
// execution traces — kilobytes to megabytes of already-framed bytes that
// would waste the LRU and the JSON codec. They share the key space (a
// unit's trace is stored under the unit's result key) but not the
// interface: a BlobBackend moves opaque byte slices, compressed at rest
// and on the wire, with no decode step in the store.
//
// The failure discipline is the result tier's: a blob pathology can cost
// a lost capture or a failed replay, never a wrong result. Puts degrade
// to counted errors; gets degrade to misses.

// BlobBackend is the durable tier for opaque trace payloads. Implementations
// must be safe for concurrent use. Write semantics are last-write-wins over
// content addresses, exactly as Backend.
type BlobBackend interface {
	// BlobGet returns the raw payload stored under key; ok is false on any
	// miss, err is reserved for infrastructure failures worth counting.
	BlobGet(key string) (val []byte, ok bool, err error)
	// BlobPut durably stores the raw payload under key.
	BlobPut(key string, val []byte) error
	// BlobHas reports presence without moving the payload.
	BlobHas(key string) bool
	// BlobLen returns the number of stored blobs (a lower bound for
	// composite backends that cannot enumerate every tier).
	BlobLen() int
}

// blobKeyLister is optionally implemented by blob backends whose key set is
// cheap to enumerate (the file tier's NDJSON index). `observe -list` uses it.
type blobKeyLister interface {
	BlobKeys() []string
}

// blobsName is the subdirectory a FileBlobs tier keeps its log in, beside
// the result log of the same store directory.
const blobsName = "blobs"

// FileBlobs is the file BlobBackend: an NDJSON log in a `blobs/`
// subdirectory of the store directory, reusing the result tier's log
// machinery (offset index, last-write-wins, torn-tail tolerance).
// Payloads are gzipped at rest and carried as a JSON string (base64) so the
// log stays line-oriented and mergeable with the same standard tools as the
// result log. Go's gzip writes a zero ModTime, so the stored line is a
// deterministic function of the payload.
type FileBlobs struct {
	log *NDJSON
}

// OpenFileBlobs opens (creating if necessary) the blob log under dir — the
// same directory the result store uses; the two logs never collide.
func OpenFileBlobs(dir string) (*FileBlobs, error) {
	log, err := OpenNDJSON(filepath.Join(dir, blobsName))
	if err != nil {
		return nil, err
	}
	return &FileBlobs{log: log}, nil
}

// BlobPut implements BlobBackend.
func (fb *FileBlobs) BlobPut(key string, val []byte) error {
	enc, err := json.Marshal(gzipBytes(val))
	if err != nil {
		return fmt.Errorf("store: blob %s: %w", key, err)
	}
	return fb.log.Put(key, enc)
}

// BlobGet implements BlobBackend. A stored line that does not decode —
// torn append, hand edit — is an infrastructure failure (counted corrupt
// by the wrapping Store) served as a miss.
func (fb *FileBlobs) BlobGet(key string) ([]byte, bool, error) {
	enc, ok, err := fb.log.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	var gz []byte
	if err := json.Unmarshal(enc, &gz); err != nil {
		return nil, false, fmt.Errorf("store: corrupt blob %s: %w", key, err)
	}
	raw, err := gunzipBytes(gz)
	if err != nil {
		return nil, false, fmt.Errorf("store: corrupt blob %s: %w", key, err)
	}
	return raw, true, nil
}

// BlobHas implements BlobBackend.
func (fb *FileBlobs) BlobHas(key string) bool { return fb.log.Has(key) }

// BlobLen implements BlobBackend.
func (fb *FileBlobs) BlobLen() int { return fb.log.Len() }

// BlobKeys returns the stored blob keys, sorted.
func (fb *FileBlobs) BlobKeys() []string { return fb.log.Keys() }

// Log returns the NDJSON log the payloads live in, for the maintenance
// stored runs on it as on its result log: eviction, compaction, and the
// deletes of a drain.
func (fb *FileBlobs) Log() *NDJSON { return fb.log }

// Close closes the blob log.
func (fb *FileBlobs) Close() error { return fb.log.Close() }

// TieredBlobs layers a near blob tier (local file) over a far one (fleet):
// gets are served near-first with a write-back, puts land in both, so a
// capture run leaves its traces replayable both offline and fleet-wide.
type TieredBlobs struct {
	Near, Far BlobBackend
}

// BlobGet implements BlobBackend: near first, then far with write-back.
func (t *TieredBlobs) BlobGet(key string) ([]byte, bool, error) {
	v, ok, nerr := t.Near.BlobGet(key)
	if ok {
		return v, true, nil
	}
	v, ok, ferr := t.Far.BlobGet(key)
	if ok {
		t.Near.BlobPut(key, v) //repro:degrade write-back is an optimization; a failed one only costs the next read a far round trip
		return v, true, nil
	}
	return nil, false, errors.Join(nerr, ferr)
}

// BlobPut implements BlobBackend, writing both tiers; partial placement
// surfaces as an error the wrapping Store counts.
func (t *TieredBlobs) BlobPut(key string, val []byte) error {
	return errors.Join(t.Near.BlobPut(key, val), t.Far.BlobPut(key, val))
}

// BlobHas implements BlobBackend.
func (t *TieredBlobs) BlobHas(key string) bool {
	return t.Near.BlobHas(key) || t.Far.BlobHas(key)
}

// BlobLen implements BlobBackend: the larger tier bounds the union from
// below (write-back makes the tiers overlap, so a sum would double count).
func (t *TieredBlobs) BlobLen() int {
	if n, f := t.Near.BlobLen(), t.Far.BlobLen(); n >= f {
		return n
	} else {
		return f
	}
}

// BlobKeys enumerates the near tier (the far tier is typically remote and
// not enumerable); sorted by the file tier's index.
func (t *TieredBlobs) BlobKeys() []string {
	if kl, ok := t.Near.(blobKeyLister); ok {
		return kl.BlobKeys()
	}
	return nil
}

// Close closes the near tier only: the far tier is the same client or
// router the result tier mounts, and closing that is its owner's job.
func (t *TieredBlobs) Close() error {
	if c, ok := t.Near.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// BlobGet implements BlobBackend on the Router through the result tier's
// rendezvous walk: the key's owner first, then the runner-up. Replicas
// without blob support read as absent.
func (r *Router) BlobGet(key string) ([]byte, bool, error) {
	var val []byte
	ok, err := r.walk(key, func(be Backend) (bool, error) {
		bb, ok := be.(BlobBackend)
		if !ok {
			return false, nil
		}
		v, ok, err := bb.BlobGet(key)
		val = v
		return ok, err
	})
	if !ok {
		return nil, false, err
	}
	return val, true, nil
}

// BlobPut implements BlobBackend on the Router, routing to the key's owner;
// a failed or unsupported placement is a counted lost write.
func (r *Router) BlobPut(key string, val []byte) error {
	i := r.ring.Owner(key)
	bb, ok := r.replicas[i].(BlobBackend)
	if !ok {
		r.lostWrites.Add(1)
		return fmt.Errorf("store: router replica %d (%s): no blob support", i, r.ring.Members[i].Name)
	}
	if err := bb.BlobPut(key, val); err != nil {
		r.lostWrites.Add(1)
		return fmt.Errorf("store: router replica %d (%s): %w", i, r.ring.Members[i].Name, err)
	}
	return nil
}

// BlobHas implements BlobBackend on the Router through the same walk.
func (r *Router) BlobHas(key string) bool {
	ok, _ := r.walk(key, func(be Backend) (bool, error) { //repro:degrade BlobHas never errors; absence is the degraded answer
		bb, ok := be.(BlobBackend)
		return ok && bb.BlobHas(key), nil
	})
	return ok
}

// BlobLen implements BlobBackend on the Router as the sum over replicas
// (the blob partition is disjoint, like the result partition).
func (r *Router) BlobLen() int {
	n := 0
	for _, be := range r.replicas {
		if bb, ok := be.(BlobBackend); ok {
			n += bb.BlobLen()
		}
	}
	return n
}

// SetBlobs attaches a blob tier to the store. Nil detaches; capture and
// replay are simply unavailable without one.
func (s *Store) SetBlobs(bb BlobBackend) { s.blobs = bb }

// Blobs returns the attached blob tier (nil when none).
func (s *Store) Blobs() BlobBackend {
	return s.blobs
}

// BlobPut stores an opaque payload under key through the blob tier.
// Failures are counted put errors, never surfaced: losing a capture only
// costs a future replay a re-simulation.
func (s *Store) BlobPut(key string, val []byte) {
	if s.blobs == nil || key == "" {
		return
	}
	if err := s.blobs.BlobPut(key, val); err != nil {
		s.putErrors.Add(1)
		return
	}
	s.blobStored.Add(1)
	s.blobBytes.Add(int64(len(val)))
}

// BlobGet returns the payload stored under key. Any failure — absent key,
// corrupt blob, unreachable tier — is a miss; corruption is counted.
func (s *Store) BlobGet(key string) ([]byte, bool) {
	if s.blobs == nil || key == "" {
		return nil, false
	}
	v, ok, err := s.blobs.BlobGet(key)
	if err != nil {
		s.corrupt.Add(1)
	}
	if !ok {
		return nil, false
	}
	s.blobFetched.Add(1)
	s.blobBytes.Add(int64(len(v)))
	return v, true
}

// BlobHas reports whether key's payload is present in the blob tier.
func (s *Store) BlobHas(key string) bool {
	if s.blobs == nil || key == "" {
		return false
	}
	return s.blobs.BlobHas(key)
}

// BlobLen returns the number of stored blobs (0 without a blob tier).
func (s *Store) BlobLen() int {
	if s.blobs == nil {
		return 0
	}
	return s.blobs.BlobLen()
}

// BlobKeys returns the blob tier's key set when it is cheap to enumerate
// (the file tier), nil otherwise.
func (s *Store) BlobKeys() []string {
	if s.blobs == nil {
		return nil
	}
	if kl, ok := s.blobs.(blobKeyLister); ok {
		return kl.BlobKeys()
	}
	return nil
}

// gzipBytes compresses b (deterministically: Go's gzip writes no ModTime).
func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(b) //repro:degrade bytes.Buffer writes cannot fail
	zw.Close()  //repro:degrade bytes.Buffer writes cannot fail
	return buf.Bytes()
}

// gunzipBytes decompresses b.
func gunzipBytes(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	return raw, err
}
