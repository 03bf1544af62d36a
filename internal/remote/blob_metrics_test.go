package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
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
// checks of a blob put: no body and an empty key get 400, while a body of
// two records stores both, as /v1/put and /v1/mput do.
func TestBlobPutRejectsMalformedBodies(t *testing.T) {
	ts, st := newBlobServer(t, true)

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
	if code := post(frame([2]string{"", "v"})); code != http.StatusBadRequest {
		t.Fatalf("empty key: %d", code)
	}
	if code := post(frame([2]string{"k1", "v1"}, [2]string{"k2", "v2"})); code != http.StatusOK {
		t.Fatalf("two records: %d", code)
	}
	for _, kv := range [][2]string{{"k1", "v1"}, {"k2", "v2"}} {
		if v, ok := st.BlobGet(kv[0]); !ok || string(v) != kv[1] {
			t.Fatalf("two-record put stored %s as %q (ok=%v), want %q", kv[0], v, ok, kv[1])
		}
	}
	if code := post(frame([2]string{"k", "v"})); code != http.StatusOK {
		t.Fatalf("well-formed: %d", code)
	}
}

// TestBlobRePutSemantics pins the result store's write semantics on the
// blob tier: an identical re-put is dropped, so the blob log does not
// grow, and a re-put with different bytes counts one conflict and wins.
func TestBlobRePutSemantics(t *testing.T) {
	ts, st := newBlobServer(t, true)
	c := newBlobClient(t, ts.URL)
	log := st.Blobs().(*store.FileBlobs).Log()

	key := store.Key("re-put", 1)
	if err := c.BlobPut(key, []byte("trace v1")); err != nil {
		t.Fatal(err)
	}
	size := log.SizeBytes()
	if err := c.BlobPut(key, []byte("trace v1")); err != nil {
		t.Fatal(err)
	}
	if got := log.SizeBytes(); got != size {
		t.Fatalf("identical re-put grew the blob log from %d to %d bytes", size, got)
	}
	if sr, err := c.Ping(); err != nil || sr.Conflicts != 0 {
		t.Fatalf("identical re-put: conflicts=%d err=%v, want 0", sr.Conflicts, err)
	}

	if err := c.BlobPut(key, []byte("trace v2")); err != nil {
		t.Fatal(err)
	}
	if sr, err := c.Ping(); err != nil || sr.Conflicts != 1 {
		t.Fatalf("differing re-put: conflicts=%d err=%v, want 1", sr.Conflicts, err)
	}
	if v, ok, err := c.BlobGet(key); err != nil || !ok || string(v) != "trace v2" {
		t.Fatalf("last write must win: %q ok=%v err=%v", v, ok, err)
	}
	if s := st.Stats(); s.BlobStored != 2 || s.BlobFetched != 1 {
		t.Fatalf("the conflict check counted blob traffic: %+v", s)
	}
}

// TestRacingPutsCountEachKeyOnce races writers of the same keys into both
// keyspaces while compactions run: each keyspace's write lock makes every
// key count as added exactly once, and a final compaction finds no
// identical rewrite appended to either log.
func TestRacingPutsCountEachKeyOnce(t *testing.T) {
	ts, st := newBlobServer(t, true)
	c := newBlobClient(t, ts.URL)
	const writers, keys = 4, 40
	var mu sync.Mutex
	added := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := store.Key("race", i)
				for _, put := range []struct {
					path string
					enc  encoding
				}{{"/v1/put", plain}, {"/v1/blob/put", gzipped}} {
					pr, err := c.put(put.path, []store.Entry{{Key: k, Val: []byte(fmt.Sprintf(`{"i":%d}`, i))}}, put.enc)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					added[put.path] += pr.Added
					mu.Unlock()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			resp, err := http.Post(ts.URL+"/v1/compact", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()

	if added["/v1/put"] != keys || added["/v1/blob/put"] != keys {
		t.Fatalf("added %d results and %d blobs, want %d of each", added["/v1/put"], added["/v1/blob/put"], keys)
	}
	if st.Len() != keys || st.BlobLen() != keys {
		t.Fatalf("store holds %d results and %d blobs, want %d of each", st.Len(), st.BlobLen(), keys)
	}
	if sr, err := c.Ping(); err != nil || sr.Conflicts != 0 {
		t.Fatalf("conflicts=%d err=%v, want 0", sr.Conflicts, err)
	}
	if kept, dropped, err := NewServer(st).CompactStore(); err != nil || kept != 2*keys || dropped != 0 {
		t.Fatalf("final compaction kept %d and dropped %d (err %v); want %d kept and no identical rewrite appended", kept, dropped, err, 2*keys)
	}
}

// droppingBlobs is a blob tier that acknowledges every write and keeps
// none of them.
type droppingBlobs struct{}

func (droppingBlobs) BlobGet(string) ([]byte, bool, error) { return nil, false, nil }
func (droppingBlobs) BlobPut(string, []byte) error         { return nil }
func (droppingBlobs) BlobHas(string) bool                  { return false }
func (droppingBlobs) BlobLen() int                         { return 0 }

// TestBlobPutDroppedWriteIs500 pins the put's durability check: a record
// the blob tier did not keep fails the request with 500, so a pusher never
// believes a lost capture is stored.
func TestBlobPutDroppedWriteIs500(t *testing.T) {
	st := store.NewMemory(0)
	st.SetBlobs(droppingBlobs{})
	ts := httptest.NewServer(NewServer(st))
	defer ts.Close()

	var body bytes.Buffer
	enc := newBinaryEncoder(&body, false)
	enc.Record("k", []byte("trace"))
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/blob/put", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", binaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("a dropped blob write answered %d, want 500", resp.StatusCode)
	}
	if err := newBlobClient(t, ts.URL).BlobPut("k", []byte("trace")); err == nil {
		t.Fatal("client reported a dropped blob write as stored")
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
}

// TestStatsRequestsMatchMetrics pins the server's one request count: after
// traffic on every endpoint, a wrong-method request and an unknown path
// included, each /v1/stats requests field equals the matching
// stored_requests_total line of /v1/metrics.
func TestStatsRequestsMatchMetrics(t *testing.T) {
	ts, _ := newBlobServer(t, true)
	c := newBlobClient(t, ts.URL)

	key := store.Key("count", 1)
	if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(key); !ok || err != nil {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	c.Has(key)
	if _, err := c.PutBatch([]store.Entry{{Key: store.Key("count", 2), Val: []byte(`{"v":2}`)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch([]string{key}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HasBatch([]string{key}); err != nil {
		t.Fatal(err)
	}
	if err := c.BlobPut(key, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.BlobGet(key); !ok || err != nil {
		t.Fatalf("blob get: ok=%v err=%v", ok, err)
	}
	c.BlobHas(key)
	if _, err := c.FetchRing(); err != nil {
		t.Fatal(err)
	}
	if err := c.InstallRing(store.FlagRing(ts.URL)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err == nil {
		t.Fatal("drain of an unnamed server succeeded")
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "/v1/compact"},
		{http.MethodGet, "/v1/metrics"},
		{http.MethodGet, "/v1/nonsense"},
		{http.MethodPost, "/v1/get"}, // wrong method: counts under get, as /v1/metrics always has
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
	}

	sr, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]int64{}
	for _, m := range regexp.MustCompile(`(?m)^stored_requests_total\{endpoint="([a-z_]+)"\} ([0-9]+)$`).FindAllStringSubmatch(string(body), -1) {
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		totals[m[1]] = n
	}
	if totals["other"] < 1 {
		t.Fatalf("unknown path not counted: %v", totals)
	}

	fieldJSON, err := json.Marshal(sr.Requests)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]int64
	if err := json.Unmarshal(fieldJSON, &fields); err != nil {
		t.Fatal(err)
	}
	endpointOf := map[string]string{
		"get": "get", "has": "has", "put": "put", "mget": "mget", "mhas": "mhas", "mput": "mput",
		"compact": "compact", "ring": "ring", "drain": "drain",
		"blobGet": "blob_get", "blobPut": "blob_put", "blobHas": "blob_has", "metrics": "metrics",
	}
	if len(fields) != len(endpointOf) {
		t.Fatalf("/v1/stats requests has %d fields, the test maps %d: %s", len(fields), len(endpointOf), fieldJSON)
	}
	for field, n := range fields {
		ep, ok := endpointOf[field]
		if !ok {
			t.Fatalf("/v1/stats requests field %q has no endpoint mapping", field)
		}
		if n < 1 {
			t.Errorf("requests.%s = %d, want the traffic above counted", field, n)
		}
		if got, ok := totals[ep]; !ok || got != n {
			t.Errorf("requests.%s = %d, but stored_requests_total{endpoint=%q} = %d (present %v)", field, n, ep, got, ok)
		}
	}
	if fields["get"] != 2 {
		t.Errorf("requests.get = %d, want 2 (the point get and the wrong-method request)", fields["get"])
	}
}
