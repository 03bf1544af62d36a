// Package remote puts the content-addressed result store of
// internal/store on the network: an HTTP service (Server, run by
// cmd/stored) wrapping one authoritative store.Store, and a client-side
// store.Backend (Client) so any number of worker processes — CI shards,
// tournament searchers, laptop runs — share that store instead of priming
// private directories and merging after the fact.
//
// The protocol is a small, versioned HTTP surface over two keyspaces, the
// result store and the blob tier of captured traces. Every key/value body,
// in both directions, is one binary record framing (RSB1, see binary.go);
// control endpoints speak plain JSON:
//
//	GET  /v1/get?k=KEY      → 200 RSB1 record | 404
//	GET  /v1/has?k=KEY      → 204 | 404
//	POST /v1/put            ← RSB1 record per entry        → 200 {"added":a,"conflicts":c}
//	POST /v1/mget           ← RSB1 key-only record per key → 200 RSB1 record per found key
//	POST /v1/mhas           ← RSB1 key-only record per key → 200 RSB1 key-only record per present key
//	POST /v1/mput           ← RSB1 record per entry        → 200 {"added":a,"conflicts":c}
//	GET  /v1/stats          → 200 StatsReply
//	POST /v1/compact        → 200 {"kept":k,"dropped":d}
//	GET  /v1/ring           → 200 store.Ring JSON | 404 (no ring installed)
//	POST /v1/ring           ← store.Ring JSON              → 200 {"epoch":e} | 409 (stale epoch)
//	POST /v1/drain          → 200 DrainReply
//	GET  /v1/blob/get?k=KEY → 200 RSB1 record | 404 | 501 (no blob tier)
//	GET  /v1/blob/has?k=KEY → 204 | 404 | 501 (no blob tier)
//	POST /v1/blob/put       ← RSB1 record per entry        → 200 {"added":a,"conflicts":c} | 501 (no blob tier)
//	GET  /v1/metrics        → 200 Prometheus text exposition
//
// The two keyspaces share one handler per operation: get, has and put are
// each served by one function, registered under /v1/ for results and
// under /v1/blob/ for blobs, and /v1/mput is the result put again. A
// point get answers with one record that carries its key, so a reply is
// self-describing and the client refuses a key mismatch. A put verifies
// every record present before it answers, and answers 500 when the
// keyspace did not keep one. A put or batch
// request declares its body as Content-Type application/x-rsbin; any
// other type is refused with 415 before the body is read. gzip, declared
// with the standard Content-Encoding / Accept-Encoding headers and coded
// through pooled compressors, wraps batch and blob bodies in both
// directions; result point bodies travel plain, because gzip would only
// slow one small record. A /v1/ring body is JSON and never compressed: a
// gzipped one gets 400. Values cross verbatim behind uvarint length
// prefixes, so a reply is one sequential scan with no per-record parse.
//
// /v1/metrics is the scrape surface: every request counter, per-endpoint
// latency histograms, store and blob-tier gauges, rendered in the
// Prometheus text exposition format with no dependency. The request
// counts /v1/stats reports are the dispatch counts of those same
// histograms, so the two surfaces always agree.
//
// Placement travels with the traffic: every response carries the server's
// installed ring epoch in the X-Result-Store-Epoch header (0 when no ring
// is installed), so a client that mounted under an older epoch notices the
// resize on its very next batch instead of quietly mis-routing until
// remount. /v1/ring serves and installs the authoritative placement ring;
// /v1/drain makes the server stream every key it no longer owns to the
// new owners (batched puts of each keyspace) and delete its copies once
// they land.
//
// Every response carries the protocol version in the
// X-Result-Store-Protocol header; the client refuses to talk through a
// version (or a non-stored endpoint) it does not understand.
//
// Write semantics are the store's, in both keyspaces: per-key
// last-write-wins, safe because keys are content addresses — two correct
// writers of one key wrote the same bytes. The server still compares old
// and new value bytes on every overwrite: an identical rewrite is dropped
// (idempotent pushes never grow either log), a differing one is counted as
// a conflict (a bug or a missed CacheVersion bump upstream), because a
// fleet-shared store is exactly where such skew would otherwise hide.
//
// Failure discipline matches the rest of the store stack: on the client,
// any network or protocol failure degrades to a counted miss (reads) or a
// memory-only put (writes), never an error into the simulation.
package remote

// ProtocolVersion is the wire protocol generation, carried on every
// response in VersionHeader. Bump it when the surface above changes
// incompatibly; client and server refuse mismatched generations.
const ProtocolVersion = "2"

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

// PutReply answers /v1/put, /v1/mput and /v1/blob/put: how many keys were
// new to the keyspace and how many overwrote an existing key with
// *different* bytes (conflicts — see the package comment; the last write
// still wins).
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

// RequestStats counts requests served per endpoint: the dispatch counts of
// the latency histograms /v1/metrics renders as stored_requests_total. A
// request counts once its dispatch ends, under the endpoint its path
// names, whatever its method; GET and POST /v1/ring share Ring.
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
// many keys it still owns (kept), summed over the result store and the
// blob tier. A drain on a server whose every key is its own is a
// successful no-op (moved=0).
type DrainReply struct {
	Moved   int `json:"moved"`
	Deleted int `json:"deleted"`
	Kept    int `json:"kept"`
}

// errorReply is the JSON body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}
