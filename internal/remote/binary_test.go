package remote

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

// TestBinaryCodecRoundTrip pins the framing itself: what the encoder
// writes, the decoder returns verbatim — including key-only records and
// values large enough to span the buffered reader's internal buffer —
// with and without the gzip layer.
func TestBinaryCodecRoundTrip(t *testing.T) {
	records := []struct {
		k string
		v []byte
	}{
		{"a", []byte(`{"x":1}`)},
		{"key-only", nil},
		{"big", bytes.Repeat([]byte("v"), 1<<20)},
		{"after-big", []byte(`"tail"`)},
	}
	for _, gz := range []bool{false, true} {
		var buf bytes.Buffer
		enc := newBinaryEncoder(&buf, gz)
		for _, r := range records {
			enc.Record(r.k, r.v)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		dec, err := newBinaryDecoder(&buf, gz)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range records {
			k, v, ok, err := dec.Next()
			if err != nil || !ok {
				t.Fatalf("gz=%v: Next() = %q, %v, %v; want record %q", gz, k, ok, err, want.k)
			}
			if k != want.k || !bytes.Equal(v, want.v) {
				t.Fatalf("gz=%v: record %q decoded as %q with %d value bytes, want %d", gz, want.k, k, len(v), len(want.v))
			}
		}
		if _, _, ok, err := dec.Next(); ok || err != nil {
			t.Fatalf("gz=%v: after last record: ok=%v err=%v, want clean end", gz, ok, err)
		}
		dec.Close()
	}
}

// TestBinaryDecoderRejectsGarbage pins the failure modes: a wrong magic is
// an immediate error, and a truncated record surfaces as an error rather
// than a silent short read.
func TestBinaryDecoderRejectsGarbage(t *testing.T) {
	if _, err := newBinaryDecoder(strings.NewReader(`{"k":"ndjson"}`), false); err == nil {
		t.Fatal("NDJSON body accepted as binary")
	}
	if _, err := newBinaryDecoder(strings.NewReader("RSB1"), true); err == nil {
		t.Fatal("uncompressed body accepted as gzip")
	}
	var buf bytes.Buffer
	enc := newBinaryEncoder(&buf, false)
	enc.Record("k", []byte(`"value"`))
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := newBinaryDecoder(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), false)
	if err != nil {
		t.Fatal(err)
	}
	defer dec.Close()
	if _, _, _, err := dec.Next(); err == nil {
		t.Fatal("truncated record decoded without error")
	}
}

// cutAfterKeyLength is an RSB1 body holding one complete record and then
// only the next record's key-length prefix: a stream cut inside a record.
func cutAfterKeyLength(t *testing.T, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := newBinaryEncoder(&buf, false)
	enc.Record("k1", []byte(`{"v":1}`))
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(2) // uvarint(len("k2")), and nothing after it
	if !gz {
		return buf.Bytes()
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

// TestBinaryDecoderRejectsCutAfterLength: a stream that ends right after a
// key's length prefix is cut inside a record, not cleanly ended between
// records, with and without gzip.
func TestBinaryDecoderRejectsCutAfterLength(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dec, err := newBinaryDecoder(bytes.NewReader(cutAfterKeyLength(t, gz)), gz)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		err = dec.each(func(string, []byte) error { records++; return nil })
		dec.Close()
		if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("gz=%v: %d records then err=%v, want io.ErrUnexpectedEOF", gz, records, err)
		}
	}
}

// TestMPutRejectsCutBody: a gzipped mput body cut after a key's length
// prefix gets 400, not a 200 that counts only the records before the cut.
func TestMPutRejectsCutBody(t *testing.T) {
	ts, _ := openBinaryTestServer(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/mput", bytes.NewReader(cutAfterKeyLength(t, true)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", binaryContentType)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mput of a cut body: got %d, want 400", resp.StatusCode)
	}
}

func openBinaryTestServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(NewServer(st))
	t.Cleanup(ts.Close)
	return ts, st
}

func testEntries(n int) []store.Entry {
	entries := make([]store.Entry, n)
	for i := range entries {
		entries[i] = store.Entry{
			Key: fmt.Sprintf("key-%03d", i),
			Val: []byte(fmt.Sprintf(`{"result":%d,"pad":%q}`, i, strings.Repeat("x", i))),
		}
	}
	return entries
}

// TestBinaryAndNDJSONBatchesAgree is the batch round trip through the one
// framing: values pushed as RSB1 records land in the server's NDJSON-backed
// store byte for byte, an identical re-push adds nothing, and mget/mhas
// read back exactly what the store holds.
func TestBinaryAndNDJSONBatchesAgree(t *testing.T) {
	ts, st := openBinaryTestServer(t)
	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	entries := testEntries(64)
	if added, err := c.PutBatch(entries); err != nil || added != len(entries) {
		t.Fatalf("mput: added=%d err=%v, want %d, nil", added, err, len(entries))
	}
	if added, err := c.PutBatch(entries); err != nil || added != 0 {
		t.Fatalf("re-push: added=%d err=%v, want 0, nil", added, err)
	}

	keys := make([]string, 0, len(entries)+1)
	for _, e := range entries {
		keys = append(keys, e.Key)
	}
	keys = append(keys, "absent")
	got, err := c.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		stored, _ := st.Peek(e.Key)
		if !bytes.Equal(got[e.Key], e.Val) || !bytes.Equal(stored, e.Val) {
			t.Fatalf("%s: mget %s, store %s, want %s", e.Key, got[e.Key], stored, e.Val)
		}
	}
	if _, ok := got["absent"]; ok || len(got) != len(entries) {
		t.Fatalf("mget returned %d entries (absent present: %v), want %d", len(got), ok, len(entries))
	}
	has, err := c.HasBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(has) != len(entries) || has["absent"] {
		t.Fatalf("mhas marked %d present (absent: %v), want %d", len(has), has["absent"], len(entries))
	}
}

// TestServerRejectsUnknownBatchContentType pins the one framing: a batch
// or blob-put body declared as anything but RSB1 — NDJSON, JSON, no type
// at all — is refused with 415 before any of it is read, even when the
// bytes themselves are a well-formed RSB1 body.
func TestServerRejectsUnknownBatchContentType(t *testing.T) {
	ts, st := newBlobServer(t, true)
	var body bytes.Buffer
	enc := newBinaryEncoder(&body, false)
	enc.Record("k", []byte(`{"v":1}`))
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/mget", "/v1/mhas", "/v1/mput", "/v1/blob/put"} {
		for _, ct := range []string{"application/x-futurebin", "application/x-ndjson", "application/json", ""} {
			req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if ct != "" {
				req.Header.Set("Content-Type", ct)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			drainClose(resp)
			if resp.StatusCode != http.StatusUnsupportedMediaType {
				t.Fatalf("%s with content type %q: got %d, want 415", path, ct, resp.StatusCode)
			}
		}
	}
	if st.Len() != 0 || st.BlobLen() != 0 {
		t.Fatalf("refused bodies were applied: %d entries, %d blobs", st.Len(), st.BlobLen())
	}
}

// TestRefusedBatchKeepsTheFraming is the regression test for a refused
// batch: a PutBatch the server answers with 400 (an entry without a value)
// must fail on its own and leave the client speaking RSB1 — the next
// PutBatch and GetBatch succeed, and no other body framing ever crosses
// the wire.
func TestRefusedBatchKeepsTheFraming(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st)
	var mu sync.Mutex
	otherBodies := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			plain := raw
			if zr, err := gzip.NewReader(bytes.NewReader(raw)); err == nil {
				plain, _ = io.ReadAll(zr)
			}
			if r.Header.Get("Content-Type") != binaryContentType || !bytes.HasPrefix(plain, binaryMagic[:]) {
				mu.Lock()
				otherBodies++
				mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.PutBatch([]store.Entry{{Key: "no-value"}}); err == nil {
		t.Fatal("PutBatch of an entry without a value succeeded")
	}
	entries := testEntries(8)
	if added, err := c.PutBatch(entries); err != nil || added != len(entries) {
		t.Fatalf("PutBatch after a refused batch: added=%d err=%v", added, err)
	}
	got, err := c.GetBatch([]string{entries[0].Key})
	if err != nil || !bytes.Equal(got[entries[0].Key], entries[0].Val) {
		t.Fatalf("GetBatch after a refused batch: %v, %v", got, err)
	}
	if st.Has("no-value") {
		t.Fatal("the refused entry was stored")
	}
	mu.Lock()
	defer mu.Unlock()
	if otherBodies != 0 {
		t.Fatalf("%d non-RSB1 batch bodies crossed the wire, want 0", otherBodies)
	}
}

// claimedLengthBody is the 8-byte RSB1 body that claims a 2²⁶-byte key
// (the record cap) and then ends: the magic and a 4-byte uvarint.
func claimedLengthBody(t *testing.T, gz bool) []byte {
	t.Helper()
	body := binary.AppendUvarint([]byte("RSB1"), maxBinaryRecordBytes)
	if len(body) != 8 {
		t.Fatalf("claim body is %d bytes, want 8", len(body))
	}
	if !gz {
		return body
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return zbuf.Bytes()
}

// allocatedBy returns the bytes the process allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBinaryDecoderBoundsClaimedLength: a record's length prefix alone
// does not size its buffer. The 8-byte body that claims a 64 MiB key is a
// cut stream, and reading it allocates under 1 MiB.
func TestBinaryDecoderBoundsClaimedLength(t *testing.T) {
	body := claimedLengthBody(t, false)
	var err error
	alloc := allocatedBy(func() {
		var dec *binaryDecoder
		if dec, err = newBinaryDecoder(bytes.NewReader(body), false); err == nil {
			err = dec.each(func(string, []byte) error { return nil })
			dec.Close()
		}
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("decoding an 8-byte body allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestMPutBoundsClaimedLength: a gzipped /v1/mput body making the same
// claim gets 400, and serving it allocates under 1 MiB.
func TestMPutBoundsClaimedLength(t *testing.T) {
	ts, _ := openBinaryTestServer(t)
	body := claimedLengthBody(t, true)
	status := 0
	alloc := allocatedBy(func() {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/mput", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", binaryContentType)
		req.Header.Set("Content-Encoding", "gzip")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
		status = resp.StatusCode
	})
	if status != http.StatusBadRequest {
		t.Fatalf("mput of a 64 MiB claim: got %d, want 400", status)
	}
	if alloc >= 1<<20 {
		t.Fatalf("serving the mput allocated %d bytes, want under 1 MiB", alloc)
	}
}
