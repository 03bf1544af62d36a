package remote

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
)

// Blob endpoints: the trace-payload tier over the wire. One opaque payload
// per request, carried as a single record in the batch endpoints' binary
// framing (binary.go) — the key rides inside the frame, so both directions
// are self-describing and a key mismatch is refused instead of stored —
// gzipped through the shared coder pools. The client side implements
// store.BlobBackend, so a fleet mount captures and replays traces exactly
// like a local directory does.

// handleBlobGet serves GET /v1/blob/get?k=KEY: the framed payload, 404 on
// a miss, 501 when the server mounts no blob tier (so a mixed fleet reads
// as absent rather than erroring).
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	s.req.blobGet.Add(1)
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	if s.st.Blobs() == nil {
		replyError(w, http.StatusNotImplemented, "no blob tier mounted")
		return
	}
	v, ok := s.st.BlobGet(k)
	if !ok {
		replyError(w, http.StatusNotFound, "not found")
		return
	}
	enc := replyRecords(w, r)
	enc.Record(k, v)
	enc.Flush() //repro:degrade a truncated response fails the client's decode, which counts a net error
}

// handleBlobPut serves POST /v1/blob/put: one framed record in, 204 out.
// The write is verified present before acknowledging — a pusher must not
// believe a capture is durable when the tier degraded it away.
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	s.req.blobPut.Add(1)
	if s.st.Blobs() == nil {
		replyError(w, http.StatusNotImplemented, "no blob tier mounted")
		return
	}
	var k string
	var v []byte
	if !readRecords(w, r, func(key string, val []byte) error {
		if k != "" || key == "" || len(val) == 0 {
			return errors.New("blob body needs exactly one record with a key and a payload")
		}
		k, v = key, val
		return nil
	}) {
		return
	}
	if k == "" {
		replyError(w, http.StatusBadRequest, "blob body carries no record")
		return
	}
	s.st.BlobPut(k, v)
	if !s.st.BlobHas(k) {
		replyError(w, http.StatusInternalServerError, "blob write degraded")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleBlobHas serves GET /v1/blob/has?k=KEY: 204 present, 404 absent (a
// blob-less tier is absent for every key, like every presence failure).
func (s *Server) handleBlobHas(w http.ResponseWriter, r *http.Request) {
	s.req.blobHas.Add(1)
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	if !s.st.BlobHas(k) {
		replyError(w, http.StatusNotFound, "not found")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// BlobGet implements store.BlobBackend over the wire. A server without a
// blob tier (501) reads as absent, like every other miss.
func (c *Client) BlobGet(key string) ([]byte, bool, error) {
	c.gets.Add(1)
	resp, err := c.do(http.MethodGet, "/v1/blob/get?k="+url.QueryEscape(key), nil,
		map[string]string{"Accept-Encoding": "gzip"})
	if err != nil {
		return nil, false, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		var val []byte
		err := scanRecords("/v1/blob/get", resp, func(k string, v []byte) error {
			if k != key {
				return fmt.Errorf("asked for key %s, server answered for key %s", key, k)
			}
			val = v
			return nil
		})
		if err == nil && val == nil {
			err = fmt.Errorf("remote: blob get %s: empty reply", key)
		}
		if err != nil {
			return nil, false, err
		}
		return val, true, nil
	case http.StatusNotFound, http.StatusNotImplemented:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("remote: blob get %s: unexpected %s", key, resp.Status)
	}
}

// BlobPut implements store.BlobBackend over the wire: one gzipped framed
// record. Failures surface as errors the wrapping Store counts and drops —
// a lost capture only costs a future replay a re-simulation.
func (c *Client) BlobPut(key string, val []byte) error {
	c.puts.Add(1)
	return c.postRecords("/v1/blob/put", http.StatusNoContent, func(enc *binaryEncoder) {
		enc.Record(key, val)
	}, nil)
}

// BlobHas implements store.BlobBackend over the wire; any failure reads as
// absent.
func (c *Client) BlobHas(key string) bool {
	resp, err := c.do(http.MethodGet, "/v1/blob/has?k="+url.QueryEscape(key), nil, nil)
	if err != nil {
		return false
	}
	defer drainClose(resp)
	return resp.StatusCode == http.StatusNoContent
}

// BlobLen implements store.BlobBackend with the server's authoritative
// count; an unreachable server reads as empty.
func (c *Client) BlobLen() int {
	sr, err := c.Ping()
	if err != nil {
		return 0
	}
	return sr.Blobs
}
