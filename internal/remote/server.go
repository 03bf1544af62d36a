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
// each put is serialized per keyspace so the added/conflict counters stay
// exact under racing writers.
type Server struct {
	st  *store.Store
	mux *http.ServeMux

	// spaces are the result store and the blob tier, in that order.
	spaces    [2]*keyspace
	conflicts atomic.Int64

	// lat holds one latency histogram per metric endpoint (see metrics.go),
	// observed around every dispatch. Its counts are the server's one
	// request count: /v1/stats and /v1/metrics both read them.
	lat *LatencySet

	ringMu sync.RWMutex
	// ring is nil until a ring is installed (flag or /v1/ring).
	//repro:guardedby ringMu
	ring *store.Ring
	// self is this replica's member name in the ring ("" = unnamed).
	//repro:guardedby ringMu
	self string

	drainMu sync.Mutex
	// drain is the drain pass running now, nil between passes.
	//repro:guardedby drainMu
	drain *drainPass
}

// drainPass is one DrainStore run that every /v1/drain request arriving
// while it runs waits for and answers with.
type drainPass struct {
	done  chan struct{} // closed once reply and err are set
	reply DrainReply
	err   error
}

// NewServer wraps st in the versioned HTTP protocol. The server owns the
// store's write path but not its lifecycle — the caller still closes st
// after the listener drains.
func NewServer(st *store.Store) *Server {
	s := &Server{st: st, mux: http.NewServeMux(), spaces: keyspaces(st), lat: NewLatencySet("stored", metricEndpoints[:])}
	for _, ks := range s.spaces {
		s.mux.HandleFunc("GET "+ks.prefix+"get", handleGet(ks))
		s.mux.HandleFunc("GET "+ks.prefix+"has", handleHas(ks))
		s.mux.HandleFunc("POST "+ks.prefix+"put", s.handlePut(ks))
	}
	s.mux.HandleFunc("POST /v1/mget", s.handleMGet)
	s.mux.HandleFunc("POST /v1/mhas", s.handleMHas)
	s.mux.HandleFunc("POST /v1/mput", s.handlePut(s.spaces[0]))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("GET /v1/ring", s.handleRingGet)
	s.mux.HandleFunc("POST /v1/ring", s.handleRingPost)
	s.mux.HandleFunc("POST /v1/drain", s.handleDrain)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// keyspace is one of the two value maps behind a store, as the server's
// get, has and put handlers, its compaction and the drain reach it: the
// result store, or the blob tier of captured traces beside it. Both are
// content-addressed and last-write-wins, so one request path serves both.
type keyspace struct {
	prefix   string // where get, has and put are served: "/v1/" or "/v1/blob/"
	pushPath string // the put endpoint a drain pushes this keyspace's batches to

	// mu serializes a put's check-then-write against the keyspace's other
	// puts and its compaction (storeOne, CompactStore). Each keyspace has
	// its own, so blob uploads never queue behind result writes.
	mu sync.Mutex

	mounted   func() bool                     // false: a blob tier the store does not mount (501)
	get, peek func(key string) ([]byte, bool) // peek counts no traffic
	has       func(key string) bool
	put       func(key string, val []byte)
	keys      func() []string // nil when the keyspace cannot be enumerated
	length    func() int
	del       func(key string) (bool, error)
	compact   func() (kept, dropped int, err error)
}

// keyspaces returns st's result store and blob tier, in that order. The
// blob tier's maintenance reaches its log through store.FileBlobs, the
// tier cmd/stored mounts; any other tier is copied, not moved, by a
// drain, and has nothing to compact.
func keyspaces(st *store.Store) [2]*keyspace {
	fileBlobs := func() *store.FileBlobs {
		fb, _ := st.Blobs().(*store.FileBlobs)
		return fb
	}
	results := &keyspace{
		prefix: "/v1/", pushPath: "/v1/mput",
		mounted: func() bool { return true },
		get:     st.Get, peek: st.Peek, has: st.Has, put: st.Put,
		keys: st.Keys, length: st.Len, del: st.Delete, compact: st.Compact,
	}
	blobs := &keyspace{
		prefix: "/v1/blob/", pushPath: "/v1/blob/put",
		mounted: func() bool { return st.Blobs() != nil },
		get:     st.BlobGet,
		peek: func(k string) ([]byte, bool) {
			v, ok, _ := st.Blobs().BlobGet(k) //repro:degrade a failed infrastructure read is an absent key, and must not skew Stats
			return v, ok
		},
		has: st.BlobHas, put: st.BlobPut, keys: st.BlobKeys, length: st.BlobLen,
		del: func(k string) (bool, error) {
			if fb := fileBlobs(); fb != nil {
				return fb.Log().Delete(k)
			}
			return false, nil
		},
		compact: func() (int, int, error) {
			if fb := fileBlobs(); fb != nil {
				return fb.Log().Compact()
			}
			return st.BlobLen(), 0, nil
		},
	}
	return [2]*keyspace{results, blobs}
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

// Requests returns per-endpoint request counts: the dispatch counts of
// the latency histograms /v1/metrics renders as stored_requests_total, so
// the two surfaces agree. A request counts once its dispatch ends, under
// the endpoint its path names whatever its method.
func (s *Server) Requests() RequestStats {
	n := func(path string) int64 { return s.lat.Count(metricEndpointIndex(path)) }
	return RequestStats{
		Get:     n("/v1/get"),
		Has:     n("/v1/has"),
		Put:     n("/v1/put"),
		MGet:    n("/v1/mget"),
		MHas:    n("/v1/mhas"),
		MPut:    n("/v1/mput"),
		Compact: n("/v1/compact"),
		Ring:    n("/v1/ring"),
		Drain:   n("/v1/drain"),
		BlobGet: n("/v1/blob/get"),
		BlobPut: n("/v1/blob/put"),
		BlobHas: n("/v1/blob/has"),
		Metrics: n("/v1/metrics"),
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

// keyParam extracts the non-empty ?k= parameter of a point request to ks:
// 400 without one, 501 when ks is a blob tier the store does not mount.
func keyParam(w http.ResponseWriter, r *http.Request, ks *keyspace) (string, bool) {
	k := r.URL.Query().Get("k")
	if k == "" {
		replyError(w, http.StatusBadRequest, "missing key parameter k")
		return "", false
	}
	return k, mounted(w, ks)
}

// mounted answers 501 and reports false when ks is a blob tier the store
// does not mount, so a mixed fleet reads as absent rather than erroring.
func mounted(w http.ResponseWriter, ks *keyspace) bool {
	if !ks.mounted() {
		replyError(w, http.StatusNotImplemented, "no blob tier mounted")
		return false
	}
	return true
}

// handleGet serves a point get of ks: the value as one RSB1 record that
// carries its key, or 404.
func handleGet(ks *keyspace) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		k, ok := keyParam(w, r, ks)
		if !ok {
			return
		}
		v, ok := ks.get(k)
		if !ok {
			replyError(w, http.StatusNotFound, "not found")
			return
		}
		enc := replyRecords(w, r)
		enc.Record(k, v)
		enc.Flush() //repro:degrade a truncated response fails the client's decode, which counts a net error
	}
}

// handleHas serves a point presence probe of ks: 204 present, 404 absent.
func handleHas(ks *keyspace) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		k, ok := keyParam(w, r, ks)
		if !ok {
			return
		}
		if !ks.has(k) {
			replyError(w, http.StatusNotFound, "not found")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// handlePut serves a put of one or more RSB1 records into ks, answering
// how many were added and how many conflicted. Every record is verified
// present before acknowledging — a pusher must not believe a write is
// durable when the tier degraded it away — and a record the keyspace did
// not keep fails the request with 500.
func (s *Server) handlePut(ks *keyspace) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !mounted(w, ks) {
			return
		}
		var total PutReply
		lost := 0
		if !readRecords(w, r, func(k string, v []byte) error {
			if k == "" || len(v) == 0 {
				return errors.New("record needs a key and a value")
			}
			added, conflicts, kept := s.storeOne(ks, k, v)
			total.Added += added
			total.Conflicts += conflicts
			if !kept {
				lost++
			}
			return nil
		}) {
			return
		}
		if lost > 0 {
			replyError(w, http.StatusInternalServerError, "%d records not kept: write degraded", lost)
			return
		}
		reply(w, http.StatusOK, total)
	}
}

// storeOne applies one last-write-wins put to ks, reporting whether the
// key was new, whether it overwrote different bytes (a conflict, counted)
// and whether the keyspace holds the key afterwards. The check + write is
// serialized per keyspace so two racing writers of one new key count as
// exactly one added. The old value is peeked, so write traffic never
// inflates the store's hit/miss or blob books — and an identical rewrite
// (the common fleet case: a retried push, two shards caching one adaptive
// unit) is dropped outright, so repeated idempotent writes never grow the
// server's append-only logs.
func (s *Server) storeOne(ks *keyspace, k string, v []byte) (added, conflicts int, kept bool) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if old, ok := ks.peek(k); ok {
		if bytes.Equal(old, v) {
			return 0, 0, true // byte-identical: the write is already durable
		}
		s.conflicts.Add(1)
		conflicts = 1
	} else {
		added = 1
	}
	ks.put(k, v) // new key, or a conflicting rewrite: last write wins
	return added, conflicts, ks.has(k)
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
	answerKeys(w, r, s.st.Get)
}

// handleMHas is the presence-only sibling of mget: prime passes ask
// "which of these exist?" for whole fan-outs, and values would be wasted
// bytes — the reply carries keys alone.
func (s *Server) handleMHas(w http.ResponseWriter, r *http.Request) {
	answerKeys(w, r, func(k string) ([]byte, bool) { return nil, s.st.Has(k) })
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
	kept, dropped, err := s.CompactStore()
	if err != nil {
		replyError(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	reply(w, http.StatusOK, CompactReply{Kept: kept, Dropped: dropped})
}

// CompactStore compacts the result log and the blob log, each under its
// keyspace's write lock, and sums what the two kept and dropped: a
// storeOne racing a file swap could Peek an existing key as absent and
// re-append it, inflating the added counter and regrowing the log
// mid-compaction. Point reads may still race and degrade to counted
// misses, as the store documents. Exported for cmd/stored's lifecycle
// loop and its -compact mode, which must take the locks the HTTP path
// takes.
func (s *Server) CompactStore() (kept, dropped int, err error) {
	for _, ks := range s.spaces {
		ks.mu.Lock()
		k, d, err := ks.compact()
		ks.mu.Unlock()
		if err != nil {
			return kept, dropped, err
		}
		kept, dropped = kept+k, dropped+d
	}
	return kept, dropped, nil
}

func (s *Server) handleRingGet(w http.ResponseWriter, r *http.Request) {
	ring := s.Ring()
	if ring == nil {
		replyError(w, http.StatusNotFound, "no ring installed")
		return
	}
	reply(w, http.StatusOK, ring)
}

func (s *Server) handleRingPost(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close() //repro:degrade request body teardown; the decode below surfaces any read failure
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
//
// One pass runs at a time: a request that arrives while a pass runs (a
// client's retry after its attempt timed out, say) waits for that pass
// and answers with its reply, or gives up when its own client goes away.
// The pass itself runs to the end whoever is still waiting for it.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	ring, self := s.Ring(), s.Self()
	if ring == nil {
		replyError(w, http.StatusConflict, "no ring installed; nothing to drain against")
		return
	}
	if self == "" {
		replyError(w, http.StatusConflict, "server has no member name (-name); cannot tell its keys from foreign ones")
		return
	}
	s.drainMu.Lock()
	pass := s.drain
	if pass == nil {
		pass = &drainPass{done: make(chan struct{})}
		s.drain = pass
		s.drainMu.Unlock()
		pass.reply, pass.err = DrainStore(s.st, ring, self)
		s.drainMu.Lock()
		s.drain = nil
		close(pass.done)
	}
	s.drainMu.Unlock()
	select {
	case <-pass.done:
	case <-r.Context().Done():
		return // the client hung up; nobody reads a reply
	}
	if pass.err != nil {
		replyError(w, http.StatusInternalServerError, "drain: %v", pass.err)
		return
	}
	reply(w, http.StatusOK, pass.reply)
}
