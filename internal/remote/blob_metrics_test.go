package remote

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/store"
)

// newBlobServer serves a store with (or without) a file blob tier mounted.
func newBlobServer(t *testing.T, withTier bool) (*httptest.Server, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if withTier {
		fb, err := store.OpenFileBlobs(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.SetBlobs(fb)
	}
	ts := httptest.NewServer(NewServer(st))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return ts, st
}

func newBlobClient(t *testing.T, url string) *Client {
	t.Helper()
	c, err := NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBlobRoundTripOverWire(t *testing.T) {
	var _ store.BlobBackend = (*Client)(nil)
	ts, st := newBlobServer(t, true)
	c := newBlobClient(t, ts.URL)

	key := store.Key("wire-blob", 1)
	payload := bytes.Repeat([]byte("trace step bytes \x00\xff\x01"), 2000)
	if err := c.BlobPut(key, payload); err != nil {
		t.Fatal(err)
	}
	if !c.BlobHas(key) || c.BlobHas(store.Key("wire-blob", 2)) {
		t.Fatal("BlobHas wrong")
	}
	got, ok, err := c.BlobGet(key)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("BlobGet: ok=%v err=%v equal=%v", ok, err, bytes.Equal(got, payload))
	}
	if _, ok, err := c.BlobGet(store.Key("wire-blob", 3)); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v", ok, err)
	}
	if c.BlobLen() != 1 {
		t.Fatalf("BlobLen = %d, want 1", c.BlobLen())
	}
	if s := st.Stats(); s.BlobStored != 1 || s.BlobFetched != 1 {
		t.Fatalf("server-side blob counters: %+v", s)
	}
}

// TestBlobNoTierReadsAsAbsent pins the 501 contract: a fleet member
// without a blob tier is a clean miss for reads and a counted failure for
// writes — never a retry loop or a crash.
func TestBlobNoTierReadsAsAbsent(t *testing.T) {
	ts, _ := newBlobServer(t, false)
	c := newBlobClient(t, ts.URL)

	if v, ok, err := c.BlobGet("k"); v != nil || ok || err != nil {
		t.Fatalf("tier-less get: v=%v ok=%v err=%v", v, ok, err)
	}
	if c.BlobHas("k") {
		t.Fatal("tier-less has: true")
	}
	if err := c.BlobPut("k", []byte("x")); err == nil {
		t.Fatal("tier-less put: no error")
	}
	if n := c.Stats().Retried; n != 0 {
		t.Fatalf("501 burned %d retries", n)
	}
}

// TestBlobKeyMismatchRefused pins the self-describing frame: a reply whose
// framed key differs from the asked key is an error, not a silent wrong
// payload.
func TestBlobKeyMismatchRefused(t *testing.T) {
	impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(VersionHeader, ProtocolVersion)
		w.Header().Set("Content-Type", binaryContentType)
		w.WriteHeader(http.StatusOK)
		enc := newBinaryEncoder(w, false)
		enc.Record("some-other-key", []byte("payload"))
		if err := enc.Flush(); err != nil {
			t.Error(err)
		}
	}))
	defer impostor.Close()
	c := newBlobClient(t, impostor.URL)
	if _, ok, err := c.BlobGet("asked-key"); ok || err == nil || !strings.Contains(err.Error(), "some-other-key") {
		t.Fatalf("mismatched key accepted: ok=%v err=%v", ok, err)
	}
}

// TestBlobPutRejectsMalformedBodies exercises the server-side framing
// checks: no body, a trailing second record, and an empty key all 400.
func TestBlobPutRejectsMalformedBodies(t *testing.T) {
	ts, _ := newBlobServer(t, true)

	post := func(body []byte) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/blob/put", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", binaryContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint — drain
		return resp.StatusCode
	}

	frame := func(records ...[2]string) []byte {
		var buf bytes.Buffer
		enc := newBinaryEncoder(&buf, false)
		for _, r := range records {
			enc.Record(r[0], []byte(r[1]))
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if code := post(nil); code != http.StatusBadRequest {
		t.Fatalf("empty body: %d", code)
	}
	if code := post(frame([2]string{"k1", "v1"}, [2]string{"k2", "v2"})); code != http.StatusBadRequest {
		t.Fatalf("two records: %d", code)
	}
	if code := post(frame([2]string{"", "v"})); code != http.StatusBadRequest {
		t.Fatalf("empty key: %d", code)
	}
	if code := post(frame([2]string{"k", "v"})); code != http.StatusNoContent {
		t.Fatalf("well-formed: %d", code)
	}
}

// metricLine matches one Prometheus sample line: name, optional labels,
// and a numeric value.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

func TestMetricsExposition(t *testing.T) {
	ts, _ := newBlobServer(t, true)
	c := newBlobClient(t, ts.URL)

	// Generate traffic across result, blob, and stats endpoints.
	if err := c.Put("result-key", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("result-key"); !ok || err != nil {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if err := c.BlobPut(store.Key("m", 1), []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every sample line parses; every family is announced by HELP and TYPE
	// before its first sample.
	announced := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			announced[strings.Fields(line)[2]] = true
			continue
		}
		if !metricLine.MatchString(line) {
			t.Fatalf("line %d is not a valid sample: %q", ln+1, line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if !announced[family] {
			t.Fatalf("sample %q before its HELP/TYPE", name)
		}
	}

	for _, want := range []string{
		`stored_requests_total{endpoint="get"} 1`,
		`stored_requests_total{endpoint="blob_put"} 1`,
		`stored_requests_total{endpoint="stats"} 1`,
		"# TYPE stored_request_duration_seconds histogram",
		`stored_request_duration_seconds_bucket{endpoint="put",le="+Inf"} 1`,
		`stored_request_duration_seconds_count{endpoint="put"} 1`,
		"stored_entries 1",
		"stored_blob_entries 1",
		"stored_ring_epoch 0",
		"stored_blob_stored_total 1",
		"stored_store_puts_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A scrape counts itself: the second scrape sees the first.
	resp2, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body2), `stored_requests_total{endpoint="metrics"} 1`) {
		t.Error("second scrape does not count the first")
	}
}

func TestMetricEndpointIndexCoversAllPaths(t *testing.T) {
	for i, path := range []string{
		"/v1/get", "/v1/has", "/v1/put", "/v1/mget", "/v1/mhas", "/v1/mput",
		"/v1/stats", "/v1/compact", "/v1/ring", "/v1/drain",
		"/v1/blob/get", "/v1/blob/put", "/v1/blob/has", "/v1/metrics",
	} {
		if got := metricEndpointIndex(path); got != i {
			t.Errorf("index(%s) = %d (%s), want %d (%s)", path, got, metricEndpoints[got], i, metricEndpoints[i])
		}
	}
	if got := metricEndpointIndex("/v1/nonsense"); metricEndpoints[got] != "other" {
		t.Errorf("unknown path classified as %q", metricEndpoints[got])
	}
	if len(metricEndpoints) != numMetricEndpoints {
		t.Fatalf("numMetricEndpoints = %d, names = %d", numMetricEndpoints, len(metricEndpoints))
	}
}
