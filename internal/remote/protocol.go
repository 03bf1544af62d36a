// Package remote puts the content-addressed result store of
// internal/store on the network: an HTTP service (Server, run by
// cmd/stored) wrapping one authoritative store.Store, and a client-side
// store.Backend (Client) so any number of worker processes — CI shards,
// tournament searchers, laptop runs — share that store instead of priming
// private directories and merging after the fact.
//
// The protocol is a small, versioned HTTP surface: JSON for point and
// control endpoints, one binary record framing (RSB1, see binary.go) for
// every batch and blob body:
//
//	GET  /v1/get?k=KEY   → 200 {"k":KEY,"v":VALUE} | 404
//	GET  /v1/has?k=KEY   → 204 | 404
//	POST /v1/put         ← {"k":KEY,"v":VALUE}            → 200 {"added":a,"conflicts":c}
//	POST /v1/mget        ← RSB1 key-only record per key    → 200 RSB1 record per found key
//	POST /v1/mhas        ← RSB1 key-only record per key    → 200 RSB1 key-only record per present key
//	POST /v1/mput        ← RSB1 record per entry           → 200 {"added":a,"conflicts":c}
//	GET  /v1/stats       → 200 StatsReply
//	POST /v1/compact     → 200 {"kept":k,"dropped":d}
//	GET  /v1/ring        → 200 store.Ring JSON | 404 (no ring installed)
//	POST /v1/ring        ← store.Ring JSON                 → 200 {"epoch":e} | 409 (stale epoch)
//	POST /v1/drain       → 200 DrainReply
//	GET  /v1/blob/get?k=KEY → 200 RSB1 record | 404 | 501 (no blob tier)
//	POST /v1/blob/put    ← RSB1 record                     → 204 | 501 (no blob tier)
//	GET  /v1/blob/has?k=KEY → 204 | 404
//	GET  /v1/metrics     → 200 Prometheus text exposition
//
// A batch or blob-put request declares its body as Content-Type
// application/x-rsbin; any other type is refused with 415 before the body
// is read. Bodies are gzipped in both directions, declared with the
// standard Content-Encoding / Accept-Encoding headers and coded through
// pooled compressors. Values cross verbatim behind uvarint length
// prefixes, so a reply is one sequential scan with no per-record parse.
//
// Blob bodies (/v1/blob/get, /v1/blob/put) carry one opaque trace payload
// as a single record: the payload's key rides inside the frame, so a reply
// or an upload is self-describing and the server can refuse a key
// mismatch. /v1/metrics is the scrape surface: every request counter,
// per-endpoint latency histograms, store and blob-tier gauges, rendered in
// the Prometheus text exposition format with no dependency.
//
// Placement travels with the traffic: every response carries the server's
// installed ring epoch in the X-Result-Store-Epoch header (0 when no ring
// is installed), so a client that mounted under an older epoch notices the
// resize on its very next batch instead of quietly mis-routing until
// remount. /v1/ring serves and installs the authoritative placement ring;
// /v1/drain makes the server stream every key it no longer owns to the
// new owners (batched mput) and delete its copies once they land.
//
// Every response carries the protocol version in the
// X-Result-Store-Protocol header; the client refuses to talk through a
// version (or a non-stored endpoint) it does not understand.
//
// Write semantics are the store's: per-key last-write-wins, safe because
// keys are content addresses — two correct writers of one key wrote the
// same bytes. The server still compares old and new value bytes on every
// overwrite: an identical rewrite is dropped (idempotent pushes never
// grow the log), a differing one is counted as a conflict (a bug or a
// missed CacheVersion bump upstream), because a fleet-shared store is
// exactly where such skew would otherwise hide.
//
// Failure discipline matches the rest of the store stack: on the client,
// any network or protocol failure degrades to a counted miss (reads) or a
// memory-only put (writes), never an error into the simulation.
package remote

import (
	"encoding/json"
	"io"
	"net/http"
)

// ProtocolVersion is the wire protocol generation, carried on every
// response in VersionHeader. Bump it when the surface above changes
// incompatibly; client and server refuse mismatched generations.
const ProtocolVersion = "1"

// VersionHeader is the response header naming the server's protocol
// generation.
const VersionHeader = "X-Result-Store-Protocol"

// EpochHeader is the response header carrying the server's installed ring
// epoch on every reply ("0" when no ring is installed). Clients track the
// maximum seen and compare it against the epoch they mounted under.
const EpochHeader = "X-Result-Store-Epoch"

// maxBodyBytes bounds any single request body (post-decompression reads
// are bounded per record by maxBinaryRecordBytes).
const maxBodyBytes = 1 << 30

// wireRecord is the JSON body of a point get reply and a point put — the
// same shape as a line of the store's NDJSON log. V holds the stored
// value, which is always JSON (the store only ever holds canonical-JSON
// payloads).
type wireRecord struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// PutReply answers /v1/put and /v1/mput: how many keys were new to the
// store and how many overwrote an existing key with *different* bytes
// (conflicts — see the package comment; the last write still wins).
type PutReply struct {
	Added     int `json:"added"`
	Conflicts int `json:"conflicts"`
}

// CompactReply answers /v1/compact.
type CompactReply struct {
	Kept    int `json:"kept"`
	Dropped int `json:"dropped"`
}

// StoreStats is the server store's traffic counters in the stats reply.
type StoreStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Puts        int64 `json:"puts"`
	Superseded  int64 `json:"superseded"`
	Corrupt     int64 `json:"corrupt"`
	PutErrors   int64 `json:"putErrors"`
	BlobStored  int64 `json:"blobStored,omitempty"`
	BlobFetched int64 `json:"blobFetched,omitempty"`
	BlobBytes   int64 `json:"blobBytes,omitempty"`
}

// RequestStats counts requests served per endpoint.
type RequestStats struct {
	Get     int64 `json:"get"`
	Has     int64 `json:"has"`
	Put     int64 `json:"put"`
	MGet    int64 `json:"mget"`
	MHas    int64 `json:"mhas"`
	MPut    int64 `json:"mput"`
	Compact int64 `json:"compact"`
	Ring    int64 `json:"ring"`
	Drain   int64 `json:"drain"`
	BlobGet int64 `json:"blobGet"`
	BlobPut int64 `json:"blobPut"`
	BlobHas int64 `json:"blobHas"`
	Metrics int64 `json:"metrics"`
}

// StatsReply answers /v1/stats.
type StatsReply struct {
	Protocol  string       `json:"protocol"`
	Len       int          `json:"len"`
	Blobs     int          `json:"blobs"`
	Epoch     uint64       `json:"epoch"`
	Conflicts int64        `json:"conflicts"`
	Requests  RequestStats `json:"requests"`
	Store     StoreStats   `json:"store"`
}

// RingReply answers POST /v1/ring: the epoch now installed.
type RingReply struct {
	Epoch uint64 `json:"epoch"`
}

// DrainReply answers /v1/drain: how many foreign keys the server pushed
// to their owners (moved), deleted locally after the push landed, and how
// many keys it still owns (kept). A drain on a server whose every key is
// its own is a successful no-op (moved=0).
type DrainReply struct {
	Moved   int `json:"moved"`
	Deleted int `json:"deleted"`
	Kept    int `json:"kept"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}

// requestBody returns a JSON request body, transparently ungzipping when
// the sender declared Content-Encoding: gzip, and bounded by maxBodyBytes.
// The decompressor comes from the shared pool; Close returns it.
func requestBody(w http.ResponseWriter, r *http.Request) (io.ReadCloser, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if r.Header.Get("Content-Encoding") != "gzip" {
		return body, nil
	}
	zr, err := getGzipReader(body)
	if err != nil {
		return nil, err
	}
	return &pooledGzipReadCloser{zr: zr}, nil
}
