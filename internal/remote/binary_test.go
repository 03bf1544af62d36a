package remote

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
