package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// ErrNotEnumerable is returned by Client.ForEach: a fleet store is not
// enumerated over the wire. Merge flows the other way — local shard
// directories are pushed up with Store.Merge through the batched put path.
var ErrNotEnumerable = errors.New("remote: store is not enumerable over the wire; merge local directories into it instead")

// DefaultRetries is the per-request retry budget on transport errors and
// 5xx responses.
const DefaultRetries = 2

// Options tunes a Client. The zero value selects the defaults.
type Options struct {
	// HTTPClient overrides the transport (nil selects a client with
	// Timeout as its overall per-attempt deadline).
	HTTPClient *http.Client
	// Retries is the per-request retry budget; < 0 disables retries.
	Retries int
	// Timeout is the per-attempt deadline when HTTPClient is nil
	// (default 30s).
	Timeout time.Duration
}

// Client speaks the /v1 protocol and implements store.Backend (plus the
// batch extension), so a worker process mounts the fleet store exactly
// like a local directory:
//
//	be, _ := remote.NewClient("http://ci-store:9200", nil)
//	st := store.New(0, be)
//
// Hot-path behaviour:
//
//   - Concurrent Gets of one key coalesce into a single in-flight request
//     whose result every caller shares — a sweep fanning out over workers
//     that all want the same entry costs one round trip.
//   - GetBatch / PutBatch move whole sweeps in single gzipped RSB1 batch
//     bodies (store.Store.Prefetch and Merge use them; see binary.go).
//   - Every request has a bounded retry budget; after it is spent the
//     failure is returned and the wrapping Store counts it as a miss
//     (reads) or degrades to memory-only (writes) — the PR-3 discipline:
//     a flaky network can slow a run down, never fail or corrupt it.
type Client struct {
	base    string
	hc      *http.Client
	retries int

	mu       sync.Mutex
	inflight map[string]*inflightGet

	// seenEpoch is the maximum ring epoch any response from this server
	// has carried — the staleness signal: a client that mounted under
	// epoch E and later sees E' > E is routing by an outdated ring.
	seenEpoch atomic.Uint64

	gets, puts, coalesced, retried, netErrors atomic.Int64
}

// inflightGet is one coalesced in-flight point lookup.
type inflightGet struct {
	done chan struct{}
	val  []byte
	ok   bool
	err  error
}

// NewClient validates baseURL (e.g. "http://127.0.0.1:9200") and returns a
// client for the stored service there. It does not dial: reachability
// failures surface per request (callers wanting fail-fast call Ping).
func NewClient(baseURL string, opt *Options) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("remote: bad store URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("remote: bad store URL %q: want http[s]://host:port", baseURL)
	}
	o := Options{Retries: DefaultRetries, Timeout: 30 * time.Second}
	if opt != nil {
		o = *opt
		if o.Timeout == 0 {
			o.Timeout = 30 * time.Second
		}
	}
	hc := o.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: o.Timeout}
	}
	retries := o.Retries
	if retries < 0 {
		retries = 0
	}
	return &Client{
		base:     strings.TrimRight(u.String(), "/"),
		hc:       hc,
		retries:  retries,
		inflight: make(map[string]*inflightGet),
	}, nil
}

// URL returns the base URL the client was mounted with (diagnostics: the
// CLIs label per-replica stats lines with it).
func (c *Client) URL() string { return c.base }

// ClientStats counts a client's traffic for diagnostics and tests.
type ClientStats struct {
	Gets, Puts, Coalesced, Retried, NetErrors int64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Gets:      c.gets.Load(),
		Puts:      c.puts.Load(),
		Coalesced: c.coalesced.Load(),
		Retried:   c.retried.Load(),
		NetErrors: c.netErrors.Load(),
	}
}

// do performs one protocol request with the bounded retry budget: transport
// errors and 5xx responses are retried with a short linear backoff, 4xx
// responses and protocol-version mismatches are not (they are
// deterministic). The returned response, if any, has status < 500 and a
// matching protocol version; the caller owns its body.
func (c *Client) do(method, path string, body []byte, hdr map[string]string) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.retried.Add(1)
			time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return nil, fmt.Errorf("remote: %w", err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("remote: %s %s: %w", method, path, err)
			continue
		}
		// 501 is exempt from the 5xx retry: it is a deliberate capability
		// answer (this server mounts no blob tier), not a transient fault,
		// so it passes through for the caller to read as absence.
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusNotImplemented {
			drainClose(resp)
			lastErr = fmt.Errorf("remote: %s %s: server error %s", method, path, resp.Status)
			continue
		}
		if got := resp.Header.Get(VersionHeader); got != ProtocolVersion {
			drainClose(resp)
			return nil, fmt.Errorf("remote: %s is not a stored v%s endpoint (protocol header %q)", c.base, ProtocolVersion, got)
		}
		if e, perr := strconv.ParseUint(resp.Header.Get(EpochHeader), 10, 64); perr == nil {
			for {
				seen := c.seenEpoch.Load()
				if e <= seen || c.seenEpoch.CompareAndSwap(seen, e) {
					break
				}
			}
		}
		return resp, nil
	}
	c.netErrors.Add(1)
	return nil, lastErr
}

// Get implements store.Backend with request coalescing: concurrent callers
// of one key share a single in-flight request and its result.
func (c *Client) Get(key string) ([]byte, bool, error) {
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.val, f.ok, f.err
	}
	f := &inflightGet{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.ok, f.err = c.getOnce(key)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.val, f.ok, f.err
}

// drainClose reads a response body to EOF and closes it. Leaving unread
// bytes behind makes net/http tear down the TCP connection instead of
// returning it to the keep-alive pool, so every point op would pay a fresh
// dial + TLS handshake; draining is what keeps one connection serving a
// whole run's traffic.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //repro:degrade best-effort connection reuse; a failed drain just costs a redial
	resp.Body.Close()              //repro:degrade nothing to do about a close error on a spent response
}

// getOnce is the uncoalesced point lookup.
func (c *Client) getOnce(key string) ([]byte, bool, error) {
	c.gets.Add(1)
	resp, err := c.do(http.MethodGet, "/v1/get?k="+url.QueryEscape(key), nil, nil)
	if err != nil {
		return nil, false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var rec wireRecord
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			return nil, false, fmt.Errorf("remote: get %s: %w", key, err)
		}
		if rec.K != key {
			return nil, false, fmt.Errorf("remote: get %s: server answered for key %s", key, rec.K)
		}
		return rec.V, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("remote: get %s: unexpected %s", key, resp.Status)
	}
}

// Put implements store.Backend (last-write-wins on the server).
func (c *Client) Put(key string, val []byte) error {
	c.puts.Add(1)
	body, err := json.Marshal(wireRecord{K: key, V: json.RawMessage(val)})
	if err != nil {
		return fmt.Errorf("remote: put %s: %w", key, err)
	}
	resp, err := c.do(http.MethodPost, "/v1/put", body, map[string]string{"Content-Type": "application/json"})
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("remote: put %s: unexpected %s", key, resp.Status)
	}
	return nil
}

// Has implements store.Backend. Any failure reads as absent — the probe's
// only job is to decide whether a prime pass must execute the unit, and
// executing is always safe.
func (c *Client) Has(key string) bool {
	resp, err := c.do(http.MethodGet, "/v1/has?k="+url.QueryEscape(key), nil, nil)
	if err != nil {
		return false
	}
	defer drainClose(resp)
	return resp.StatusCode == http.StatusNoContent
}

// batchHeaders are the headers of every batch and blob-put request: a
// gzipped RSB1 body, with gzip accepted back. Read-only.
var batchHeaders = map[string]string{
	"Content-Type":     binaryContentType,
	"Content-Encoding": "gzip",
	"Accept-Encoding":  "gzip",
}

// postRecords posts one gzipped RSB1 body holding the records encode
// writes and, when the server answers with status want, hands the
// response to read (nil reads nothing). The body is staged in a pooled
// buffer the retry loop replays; records stream straight into the pooled
// compressor, so the compressed body is the only whole-batch buffer.
func (c *Client) postRecords(path string, want int, encode func(*binaryEncoder), read func(*http.Response) error) error {
	buf := getBuf()
	defer putBuf(buf)
	enc := newBinaryEncoder(buf, true)
	encode(enc)
	if err := enc.Flush(); err != nil {
		return fmt.Errorf("remote: %s: %w", path, err)
	}
	resp, err := c.do(http.MethodPost, path, buf.Bytes(), batchHeaders)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != want {
		return fmt.Errorf("remote: %s: unexpected %s", path, resp.Status)
	}
	if read == nil {
		return nil
	}
	return read(resp)
}

// scanRecords streams an RSB1 reply body to fn, one record at a time; val
// is nil for key-only records.
func scanRecords(path string, resp *http.Response, fn func(key string, val []byte) error) error {
	dec, err := newBinaryDecoder(resp.Body, resp.Header.Get("Content-Encoding") == "gzip")
	if err == nil {
		defer dec.Close()
		err = dec.each(fn)
	}
	if err != nil {
		return fmt.Errorf("remote: %s: %w", path, err)
	}
	return nil
}

// postKeys is the round trip of mget and mhas: one key-only record per
// key out, one record per found key back to fn.
func (c *Client) postKeys(path string, keys []string, fn func(key string, val []byte) error) error {
	return c.postRecords(path, http.StatusOK, func(enc *binaryEncoder) {
		for _, k := range keys {
			enc.Record(k, nil)
		}
	}, func(resp *http.Response) error {
		return scanRecords(path, resp, fn)
	})
}

// GetBatch implements store.BatchBackend: one gzipped /v1/mget round trip
// for the whole key set.
func (c *Client) GetBatch(keys []string) (map[string][]byte, error) {
	c.gets.Add(int64(len(keys)))
	out := make(map[string][]byte, len(keys))
	if err := c.postKeys("/v1/mget", keys, func(k string, v []byte) error {
		out[k] = v
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// HasBatch implements store.HasBatcher: one gzipped /v1/mhas round trip
// answering presence for the whole key set — no values cross the wire,
// which is what a prime pass deciding what to execute wants.
func (c *Client) HasBatch(keys []string) (map[string]bool, error) {
	out := make(map[string]bool, len(keys))
	if err := c.postKeys("/v1/mhas", keys, func(k string, _ []byte) error {
		out[k] = true
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PutBatch implements store.BatchBackend: one gzipped /v1/mput round trip
// for the whole entry set, reporting how many keys were new to the server.
func (c *Client) PutBatch(entries []store.Entry) (int, error) {
	c.puts.Add(int64(len(entries)))
	var pr PutReply
	err := c.postRecords("/v1/mput", http.StatusOK, func(enc *binaryEncoder) {
		for _, e := range entries {
			enc.Record(e.Key, e.Val)
		}
	}, func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			return fmt.Errorf("remote: mput: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return pr.Added, nil
}

// Ping fetches /v1/stats, verifying reachability and protocol version in
// one call — the CLIs fail fast on it before a long run, where the
// degrade-to-miss discipline would otherwise hide a typoed URL behind a
// silently cold cache.
func (c *Client) Ping() (StatsReply, error) {
	resp, err := c.do(http.MethodGet, "/v1/stats", nil, nil)
	if err != nil {
		return StatsReply{}, err
	}
	defer drainClose(resp)
	var sr StatsReply
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return StatsReply{}, fmt.Errorf("remote: stats: %w", err)
	}
	return sr, nil
}

// SeenEpoch returns the maximum ring epoch any response from this server
// has carried (0 before the first response, and for ring-less servers).
func (c *Client) SeenEpoch() uint64 { return c.seenEpoch.Load() }

// FetchRing retrieves the server's installed placement ring. A server
// with no ring installed returns (nil, nil) — the caller falls back to
// flag-order placement.
func (c *Client) FetchRing() (*store.Ring, error) {
	resp, err := c.do(http.MethodGet, "/v1/ring", nil, nil)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var ring store.Ring
		if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
			return nil, fmt.Errorf("remote: ring: %w", err)
		}
		if err := ring.Validate(); err != nil {
			return nil, fmt.Errorf("remote: ring: %w", err)
		}
		return &ring, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("remote: ring: unexpected %s", resp.Status)
	}
}

// InstallRing posts ring to the server as the authoritative placement.
// The server refuses stale epochs and conflicting same-epoch rings.
func (c *Client) InstallRing(ring *store.Ring) error {
	body, err := json.Marshal(ring)
	if err != nil {
		return fmt.Errorf("remote: install ring: %w", err)
	}
	resp, err := c.do(http.MethodPost, "/v1/ring", body, map[string]string{"Content-Type": "application/json"})
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		var er errorReply
		json.NewDecoder(resp.Body).Decode(&er) //repro:degrade best-effort error detail; the status line already carries the failure
		return fmt.Errorf("remote: install ring: %s (%s)", resp.Status, er.Error)
	}
	return nil
}

// Drain asks the server to push every key it no longer owns under its
// installed ring to the new owners and delete the local copies that
// landed (see DrainStore).
func (c *Client) Drain() (DrainReply, error) {
	resp, err := c.do(http.MethodPost, "/v1/drain", nil, nil)
	if err != nil {
		return DrainReply{}, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		var er errorReply
		json.NewDecoder(resp.Body).Decode(&er) //repro:degrade best-effort error detail; the status line already carries the failure
		return DrainReply{}, fmt.Errorf("remote: drain: %s (%s)", resp.Status, er.Error)
	}
	var dr DrainReply
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return DrainReply{}, fmt.Errorf("remote: drain: %w", err)
	}
	return dr, nil
}

// Compact asks the server to compact its log, returning live entries kept
// and dead records dropped.
func (c *Client) Compact() (kept, dropped int, err error) {
	resp, err := c.do(http.MethodPost, "/v1/compact", nil, nil)
	if err != nil {
		return 0, 0, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("remote: compact: unexpected %s", resp.Status)
	}
	var cr CompactReply
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return 0, 0, fmt.Errorf("remote: compact: %w", err)
	}
	return cr.Kept, cr.Dropped, nil
}

// ForEach implements store.Backend by refusing: see ErrNotEnumerable.
func (c *Client) ForEach(fn func(key string, val []byte) error) error {
	return ErrNotEnumerable
}

// Len implements store.Backend with the server's authoritative count; an
// unreachable server reads as empty.
func (c *Client) Len() int {
	sr, err := c.Ping()
	if err != nil {
		return 0
	}
	return sr.Len
}

// Close implements store.Backend, releasing idle connections.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}
