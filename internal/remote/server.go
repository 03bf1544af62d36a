package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// Server is the HTTP face of one authoritative store.Store — the service
// cmd/stored runs. It is an http.Handler; mount it at the root of a
// listener (it owns the whole /v1/ path space). Safe for concurrent use:
// the store is already goroutine-safe, and the conflict check + write of
// each put is serialized so the added/conflict counters stay exact under
// racing writers.
type Server struct {
	st  *store.Store
	mux *http.ServeMux

	putMu     sync.Mutex // serializes conflict-check + write per put
	conflicts atomic.Int64
	req       struct {
		get, has, put, mget, mhas, mput, compact, ring, drain atomic.Int64
		blobGet, blobPut, blobHas, metrics                    atomic.Int64
	}

	// lat holds one latency histogram per metric endpoint (see metrics.go),
	// observed around every dispatch.
	lat *LatencySet

	ringMu sync.RWMutex
	// ring is nil until a ring is installed (flag or /v1/ring).
	//repro:guardedby ringMu
	ring *store.Ring
	// self is this replica's member name in the ring ("" = unnamed).
	//repro:guardedby ringMu
	self string
}

// NewServer wraps st in the versioned HTTP protocol. The server owns the
// store's write path but not its lifecycle — the caller still closes st
// after the listener drains.
func NewServer(st *store.Store) *Server {
	s := &Server{st: st, mux: http.NewServeMux(), lat: NewLatencySet("stored", metricEndpoints[:])}
	s.mux.HandleFunc("GET /v1/get", s.handleGet)
	s.mux.HandleFunc("GET /v1/has", s.handleHas)
	s.mux.HandleFunc("POST /v1/put", s.handlePut)
	s.mux.HandleFunc("POST /v1/mget", s.handleMGet)
	s.mux.HandleFunc("POST /v1/mhas", s.handleMHas)
	s.mux.HandleFunc("POST /v1/mput", s.handleMPut)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/ring", s.handleRingGet)
	s.mux.HandleFunc("POST /v1/ring", s.handleRingPost)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	s.mux.HandleFunc("GET /v1/blob/get", s.handleBlobGet)
	s.mux.HandleFunc("POST /v1/blob/put", s.handleBlobPut)
	s.mux.HandleFunc("GET /v1/blob/has", s.handleBlobHas)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler, stamping every response with the
// protocol version and the installed ring epoch before dispatch — a
// stale client learns about a resize from its very next reply — and
// timing the dispatch into the endpoint's latency histogram.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := nowMetrics() //repro:wallclock request latency feeds the metrics surface only, never canonical output
	w.Header().Set(VersionHeader, ProtocolVersion)
	w.Header().Set(EpochHeader, strconv.FormatUint(s.epoch(), 10))
	s.mux.ServeHTTP(w, r)
	s.lat.Observe(metricEndpointIndex(r.URL.Path), nowMetrics().Sub(start))
}

// SetSelf names this replica: the ring member identity the server drains
// as. cmd/stored sets it from -name before serving.
func (s *Server) SetSelf(name string) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	s.self = name
}

// Self returns the replica's member name ("" when unnamed).
func (s *Server) Self() string {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.self
}

// Ring returns the installed placement ring (nil when none).
func (s *Server) Ring() *store.Ring {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	return s.ring
}

// epoch returns the installed ring's epoch, 0 when no ring is installed.
func (s *Server) epoch() uint64 {
	s.ringMu.RLock()
	defer s.ringMu.RUnlock()
	if s.ring == nil {
		return 0
	}
	return s.ring.Epoch
}

// InstallRing installs r as the authoritative placement. Epochs must be
// monotonic: a ring older than the installed one is refused (the caller
// raced a newer resize), re-installing the same epoch is an idempotent
// no-op only when the membership matches byte-for-byte — two *different*
// rings claiming one epoch would split the fleet's placement brain.
func (s *Server) InstallRing(r *store.Ring) error {
	if r == nil {
		return fmt.Errorf("remote: nil ring")
	}
	if err := r.Validate(); err != nil {
		return err
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if s.ring != nil {
		if r.Epoch < s.ring.Epoch {
			return fmt.Errorf("remote: stale ring epoch %d (installed %d)", r.Epoch, s.ring.Epoch)
		}
		if r.Epoch == s.ring.Epoch {
			if sameRing(r, s.ring) {
				return nil
			}
			return fmt.Errorf("remote: conflicting ring at epoch %d (a resize must bump the epoch)", r.Epoch)
		}
	}
	s.ring = r
	return nil
}

// sameRing reports member-for-member equality.
func sameRing(a, b *store.Ring) bool {
	if len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

// Conflicts returns the number of writes that overwrote a key with
// different bytes — which content addressing promises never happens, so
// every count is evidence of version skew or a bug in some writer.
func (s *Server) Conflicts() int64 { return s.conflicts.Load() }

// Requests returns per-endpoint request counts.
func (s *Server) Requests() RequestStats {
	return RequestStats{
		Get:     s.req.get.Load(),
		Has:     s.req.has.Load(),
		Put:     s.req.put.Load(),
		MGet:    s.req.mget.Load(),
		MHas:    s.req.mhas.Load(),
		MPut:    s.req.mput.Load(),
		Compact: s.req.compact.Load(),
		Ring:    s.req.ring.Load(),
		Drain:   s.req.drain.Load(),
		BlobGet: s.req.blobGet.Load(),
		BlobPut: s.req.blobPut.Load(),
		BlobHas: s.req.blobHas.Load(),
		Metrics: s.req.metrics.Load(),
	}
}

// reply writes a JSON body with the given status.
func reply(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //repro:degrade a response-write failure means the peer hung up; the client counts it as a net error
}

// replyError writes the protocol's error body.
func replyError(w http.ResponseWriter, status int, format string, args ...any) {
	reply(w, status, errorReply{Error: fmt.Sprintf(format, args...)})
}

// keyParam extracts the non-empty ?k= parameter.
func keyParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	k := r.URL.Query().Get("k")
	if k == "" {
		replyError(w, http.StatusBadRequest, "missing key parameter k")
		return "", false
	}
	return k, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.req.get.Add(1)
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	v, ok := s.st.Get(k)
	if !ok {
		replyError(w, http.StatusNotFound, "not found")
		return
	}
	reply(w, http.StatusOK, wireRecord{K: k, V: v})
}

func (s *Server) handleHas(w http.ResponseWriter, r *http.Request) {
	s.req.has.Add(1)
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	if !s.st.Has(k) {
		replyError(w, http.StatusNotFound, "not found")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// storeOne applies one last-write-wins put, reporting whether the key was
// new and whether it overwrote different bytes (a conflict, counted). The
// check + write is serialized so two racing writers of one new key count
// as exactly one added. The old value is read with Peek, so write traffic
// never inflates the store's hit/miss books — and an identical rewrite
// (the common fleet case: a retried push, two shards caching one adaptive
// unit) is dropped outright, so repeated idempotent writes never grow the
// server's append-only log.
func (s *Server) storeOne(k string, v []byte) (added, conflicts int) {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	if old, ok := s.st.Peek(k); ok {
		if bytes.Equal(old, v) {
			return 0, 0 // byte-identical: the write is already durable
		}
		s.conflicts.Add(1)
		conflicts = 1
	} else {
		added = 1
	}
	s.st.Put(k, v) // new key, or a conflicting rewrite: last write wins
	return added, conflicts
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	s.req.put.Add(1)
	body, err := requestBody(w, r)
	if err != nil {
		replyError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	defer body.Close() //repro:degrade request body teardown; the decode above already surfaced any read failure
	var rec wireRecord
	if err := json.NewDecoder(body).Decode(&rec); err != nil {
		replyError(w, http.StatusBadRequest, "bad record: %v", err)
		return
	}
	if rec.K == "" || len(rec.V) == 0 {
		replyError(w, http.StatusBadRequest, "record needs k and v")
		return
	}
	added, conflicts := s.storeOne(rec.K, rec.V)
	reply(w, http.StatusOK, PutReply{Added: added, Conflicts: conflicts})
}

// readRecords streams an RSB1 request body to fn, one record at a time:
// 415 before any of the body is read unless the request declares the
// binary Content-Type, 400 on a broken body or an error from fn. A false
// return means the error response has already been written.
func readRecords(w http.ResponseWriter, r *http.Request, fn func(key string, val []byte) error) bool {
	if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) != binaryContentType {
		replyError(w, http.StatusUnsupportedMediaType, "body must be %s, got %q", binaryContentType, r.Header.Get("Content-Type"))
		return false
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec, err := newBinaryDecoder(body, r.Header.Get("Content-Encoding") == "gzip")
	if err == nil {
		defer dec.Close()
		err = dec.each(fn)
	}
	if err != nil {
		replyError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return false
	}
	return true
}

// replyRecords starts a 200 RSB1 reply, gzipped through the pooled
// compressor when the request accepts gzip. The caller must Flush the
// returned encoder before the handler exits.
func replyRecords(w http.ResponseWriter, r *http.Request) *binaryEncoder {
	gz := strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
	w.Header().Set("Content-Type", binaryContentType)
	if gz {
		w.Header().Set("Content-Encoding", "gzip")
	}
	w.WriteHeader(http.StatusOK)
	return newBinaryEncoder(w, gz)
}

// answerKeys serves a key-list batch: it reads the requested keys, then
// replies with one record per key lookup finds — the value for mget, a
// key-only record for mhas.
func answerKeys(w http.ResponseWriter, r *http.Request, lookup func(key string) ([]byte, bool)) {
	var keys []string
	if !readRecords(w, r, func(k string, _ []byte) error {
		if k == "" {
			return errors.New("record has an empty key")
		}
		keys = append(keys, k)
		return nil
	}) {
		return
	}
	enc := replyRecords(w, r)
	defer enc.Flush() //repro:degrade a failed flush truncates the reply; the client's decode catches it
	for _, k := range keys {
		if v, ok := lookup(k); ok {
			if enc.Record(k, v); enc.err != nil {
				return // client went away; nothing left to report to it
			}
		}
	}
}

func (s *Server) handleMGet(w http.ResponseWriter, r *http.Request) {
	s.req.mget.Add(1)
	answerKeys(w, r, s.st.Get)
}

// handleMHas is the presence-only sibling of mget: prime passes ask
// "which of these exist?" for whole fan-outs, and values would be wasted
// bytes — the reply carries keys alone.
func (s *Server) handleMHas(w http.ResponseWriter, r *http.Request) {
	s.req.mhas.Add(1)
	answerKeys(w, r, func(k string) ([]byte, bool) { return nil, s.st.Has(k) })
}

func (s *Server) handleMPut(w http.ResponseWriter, r *http.Request) {
	s.req.mput.Add(1)
	var total PutReply
	if !readRecords(w, r, func(k string, v []byte) error {
		if k == "" || len(v) == 0 {
			return errors.New("record needs a key and a value")
		}
		added, conflicts := s.storeOne(k, v)
		total.Added += added
		total.Conflicts += conflicts
		return nil
	}) {
		return
	}
	reply(w, http.StatusOK, total)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.st.Stats()
	reply(w, http.StatusOK, StatsReply{
		Protocol:  ProtocolVersion,
		Len:       s.st.Len(),
		Blobs:     s.st.BlobLen(),
		Epoch:     s.epoch(),
		Conflicts: s.conflicts.Load(),
		Requests:  s.Requests(),
		Store: StoreStats{
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
			Superseded: st.Superseded, Corrupt: st.Corrupt, PutErrors: st.PutErrors,
			BlobStored: st.BlobStored, BlobFetched: st.BlobFetched, BlobBytes: st.BlobBytes,
		},
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.req.compact.Add(1)
	kept, dropped, err := s.CompactStore()
	if err != nil {
		replyError(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	reply(w, http.StatusOK, CompactReply{Kept: kept, Dropped: dropped})
}

// CompactStore compacts the wrapped store under the write lock: a
// storeOne racing the file swap could Peek an existing key as absent and
// re-append it, inflating the added counter and regrowing the log
// mid-compaction. Point reads may still race and degrade to counted
// misses, as the store documents. Exported for cmd/stored's lifecycle
// loop, which must take the same lock the HTTP path takes.
func (s *Server) CompactStore() (kept, dropped int, err error) {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	return s.st.Compact()
}

func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	s.req.ring.Add(1)
	ring := s.Ring()
	if ring == nil {
		replyError(w, http.StatusNotFound, "no ring installed")
		return
	}
	reply(w, http.StatusOK, ring)
}

func (s *Server) handleRingPost(w http.ResponseWriter, r *http.Request) {
	s.req.ring.Add(1)
	body, err := requestBody(w, r)
	if err != nil {
		replyError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	defer body.Close() //repro:degrade request body teardown; the decode above already surfaced any read failure
	var ring store.Ring
	if err := json.NewDecoder(body).Decode(&ring); err != nil {
		replyError(w, http.StatusBadRequest, "bad ring: %v", err)
		return
	}
	if err := s.InstallRing(&ring); err != nil {
		replyError(w, http.StatusConflict, "%v", err)
		return
	}
	// The header stamped at dispatch predates the install; repeat the new
	// epoch in the body so the installer sees it took.
	reply(w, http.StatusOK, RingReply{Epoch: s.epoch()})
}

// handleDrain streams every key this replica no longer owns under the
// installed ring to the keys' owners and deletes the local copies once
// they land. Requires an installed ring and a self name that maps into it
// or is absent from it (a decommission drains everything); an unnamed
// server cannot know which keys are its own.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.req.drain.Add(1)
	ring, self := s.Ring(), s.Self()
	if ring == nil {
		replyError(w, http.StatusConflict, "no ring installed; nothing to drain against")
		return
	}
	if self == "" {
		replyError(w, http.StatusConflict, "server has no member name (-name); cannot tell its keys from foreign ones")
		return
	}
	dr, err := DrainStore(s.st, ring, self)
	if err != nil {
		replyError(w, http.StatusInternalServerError, "drain: %v", err)
		return
	}
	reply(w, http.StatusOK, dr)
}
