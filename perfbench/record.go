package main

import (
	"io"

	"repro/internal/store"
)

// The recording wrappers time every call the store makes into the backend
// a workload mounts, as spans named "<layer>.<method>". Each exposes the
// optional interfaces that decide how the store calls what it wraps: a
// wrapper that hid BatchBackend would turn a batched mget prefetch into
// point gets, and one that invented it would batch a local log that never
// batches. The store's optional stats interfaces (dead records, degraded
// writes) are not forwarded; the benchmark reads only hits and misses.

// recBackend records the Backend methods of be.
type recBackend struct {
	be    store.Backend
	tr    *tracer
	layer string
}

func (r *recBackend) Get(key string) ([]byte, bool, error) {
	defer r.tr.begin(r.layer + ".get")()
	return r.be.Get(key)
}

func (r *recBackend) Put(key string, val []byte) error {
	defer r.tr.begin(r.layer + ".put")()
	return r.be.Put(key, val)
}

func (r *recBackend) Has(key string) bool {
	defer r.tr.begin(r.layer + ".has")()
	return r.be.Has(key)
}

func (r *recBackend) ForEach(fn func(key string, val []byte) error) error {
	defer r.tr.begin(r.layer + ".foreach")()
	return r.be.ForEach(fn)
}

func (r *recBackend) Len() int {
	defer r.tr.begin(r.layer + ".len")()
	return r.be.Len()
}

func (r *recBackend) Close() error { return r.be.Close() }

// fleetBackend is what a fleet mount's backends implement: the remote
// client and the router over clients both batch and carry blobs.
type fleetBackend interface {
	store.BatchBackend
	store.HasBatcher
	store.BlobBackend
}

// recFleet records a fleetBackend: the Backend methods plus the batch and
// blob surfaces.
type recFleet struct {
	*recBackend
	fb fleetBackend
}

func recordFleet(fb fleetBackend, tr *tracer, layer string) *recFleet {
	return &recFleet{recBackend: &recBackend{be: fb, tr: tr, layer: layer}, fb: fb}
}

func (r *recFleet) GetBatch(keys []string) (map[string][]byte, error) {
	defer r.tr.beginN(r.layer+".getbatch", len(keys))()
	return r.fb.GetBatch(keys)
}

func (r *recFleet) PutBatch(entries []store.Entry) (int, error) {
	defer r.tr.beginN(r.layer+".putbatch", len(entries))()
	return r.fb.PutBatch(entries)
}

func (r *recFleet) HasBatch(keys []string) (map[string]bool, error) {
	defer r.tr.beginN(r.layer+".hasbatch", len(keys))()
	return r.fb.HasBatch(keys)
}

func (r *recFleet) BlobGet(key string) ([]byte, bool, error) {
	defer r.tr.begin(r.layer + ".blobget")()
	return r.fb.BlobGet(key)
}

func (r *recFleet) BlobPut(key string, val []byte) error {
	defer r.tr.begin(r.layer + ".blobput")()
	return r.fb.BlobPut(key, val)
}

func (r *recFleet) BlobHas(key string) bool {
	defer r.tr.begin(r.layer + ".blobhas")()
	return r.fb.BlobHas(key)
}

func (r *recFleet) BlobLen() int { return r.fb.BlobLen() }

// recBlobs records a standalone blob tier (a local store's blobs/ log).
type recBlobs struct {
	bb    store.BlobBackend
	tr    *tracer
	layer string
}

func (r *recBlobs) BlobGet(key string) ([]byte, bool, error) {
	defer r.tr.begin(r.layer + ".blobget")()
	return r.bb.BlobGet(key)
}

func (r *recBlobs) BlobPut(key string, val []byte) error {
	defer r.tr.begin(r.layer + ".blobput")()
	return r.bb.BlobPut(key, val)
}

func (r *recBlobs) BlobHas(key string) bool {
	defer r.tr.begin(r.layer + ".blobhas")()
	return r.bb.BlobHas(key)
}

func (r *recBlobs) BlobLen() int { return r.bb.BlobLen() }

// Close closes the wrapped tier; the store closes a blob tier that is not
// also its result backend through io.Closer.
func (r *recBlobs) Close() error {
	if c, ok := r.bb.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
