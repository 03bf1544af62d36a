package remote_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/remote"
	"repro/internal/store"
)

// newServer returns a stored service over a fresh NDJSON-backed store,
// plus handles to both.
func newServer(t *testing.T) (*httptest.Server, *remote.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(st)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return ts, srv, st
}

func newClient(t *testing.T, url string) *remote.Client {
	t.Helper()
	c, err := remote.NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientImplementsBackend(t *testing.T) {
	var _ store.Backend = (*remote.Client)(nil)
	var _ store.BatchBackend = (*remote.Client)(nil)
	var _ store.HasBatcher = (*remote.Client)(nil)
	var _ store.BatchBackend = (*store.Tiered)(nil)
	var _ store.HasBatcher = (*store.Tiered)(nil)
}

// TestHasBatch pins the presence-only batch: one mhas round trip answers
// a whole key set and moves no values.
func TestHasBatch(t *testing.T) {
	ts, srv, st := newServer(t)
	c := newClient(t, ts.URL)
	var keys []string
	for i := 0; i < 20; i++ {
		keys = append(keys, store.Key("v1", i))
		if i%2 == 0 {
			st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
		}
	}
	present, err := c.HasBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if present[k] != (i%2 == 0) {
			t.Fatalf("key %d: present=%v, want %v", i, present[k], i%2 == 0)
		}
	}
	if r := srv.Requests(); r.MHas != 1 || r.Has != 0 || r.MGet != 0 {
		t.Fatalf("presence probe must be one mhas request: %+v", r)
	}

	// Through the Store layer: Present answers from the same single probe.
	wrapped := store.New(4, newClient(t, ts.URL))
	defer wrapped.Close()
	got := wrapped.Present(keys)
	for i, k := range keys {
		if got[k] != (i%2 == 0) {
			t.Fatalf("Present key %d: %v", i, got[k])
		}
	}
	if s := wrapped.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("presence probes must not touch the books: %+v", s)
	}
}

// TestMergePushIdempotent pins that pushing the same local shard directory
// to the fleet store twice is a no-op the second time — on the server (its
// byte-identical rewrites are dropped) and in the tiered near log (present
// keys are not re-appended).
func TestMergePushIdempotent(t *testing.T) {
	ts, _, _ := newServer(t)
	src := t.TempDir()
	srcSt, err := store.Open(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		store.PutJSON(srcSt, store.Key("v1", i), i)
	}
	srcSt.Close()

	nearDir := t.TempDir()
	logPath := filepath.Join(nearDir, "results.ndjson")
	var sizeAfterFirst int64
	for round := 0; round < 2; round++ {
		st, _, _, err := remote.MountFleet(nearDir, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		added, err := st.Merge(src)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		switch round {
		case 0:
			if added != 5 {
				t.Fatalf("first push added %d, want 5", added)
			}
			sizeAfterFirst = fi.Size()
		case 1:
			if added != 0 {
				t.Fatalf("second push added %d, want 0", added)
			}
			if fi.Size() != sizeAfterFirst {
				t.Fatalf("re-merge grew the near log %d → %d bytes", sizeAfterFirst, fi.Size())
			}
		}
	}
}

func TestPointRoundTrip(t *testing.T) {
	ts, srv, _ := newServer(t)
	c := newClient(t, ts.URL)

	k := store.Key("v1", "unit-1")
	if _, ok, err := c.Get(k); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if c.Has(k) {
		t.Fatal("Has on empty store")
	}
	if err := c.Put(k, []byte(`{"sc":42}`)); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(k)
	if !ok || err != nil || string(v) != `{"sc":42}` {
		t.Fatalf("round trip: %q ok=%v err=%v", v, ok, err)
	}
	if !c.Has(k) {
		t.Fatal("Has after Put")
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len=%d, want 1", n)
	}
	if got := srv.Conflicts(); got != 0 {
		t.Fatalf("conflicts=%d, want 0", got)
	}
}

// TestPointBodiesArePlainJSON pins the edges of the one value framing: a
// /v1/ring body is plain JSON, so a gzipped one is not decoded and gets
// 400, and /v1/put takes RSB1 records only, so a JSON body, plain or
// gzipped, gets 415 before it is read. Nothing is stored or installed.
func TestPointBodiesArePlainJSON(t *testing.T) {
	ts, srv, st := newServer(t)
	gz := func(plain string) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write([]byte(plain))
		zw.Close()
		return buf.Bytes()
	}
	k := store.Key("v1", "gzipped")
	put := `{"k":"` + k + `","v":{"sc":1}}`
	for _, tc := range []struct {
		path string
		body []byte
		gz   bool
		want int
	}{
		{"/v1/put", []byte(put), false, http.StatusUnsupportedMediaType},
		{"/v1/put", gz(put), true, http.StatusUnsupportedMediaType},
		{"/v1/ring", gz(`{"epoch":1,"members":[{"name":"a","url":"http://a:1","weight":1}]}`), true, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tc.gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s body (gzip %v): got %d, want %d", tc.path, tc.gz, resp.StatusCode, tc.want)
		}
	}
	if st.Has(k) || st.Len() != 0 {
		t.Fatalf("a JSON put was stored: %d entries", st.Len())
	}
	if srv.Ring() != nil {
		t.Fatalf("a gzipped ring was installed: %s", srv.Ring())
	}
}

// TestLastWriteWinsAndConflictCounting pins the write semantics: identical
// rewrites are invisible, differing rewrites are counted as conflicts and
// the last write still wins.
func TestLastWriteWinsAndConflictCounting(t *testing.T) {
	ts, srv, _ := newServer(t)
	c := newClient(t, ts.URL)

	k := store.Key("v1", "unit-1")
	if err := c.Put(k, []byte(`{"sc":1}`)); err != nil {
		t.Fatal(err)
	}
	// A well-behaved duplicate writer: same content address, same bytes.
	if err := c.Put(k, []byte(`{"sc":1}`)); err != nil {
		t.Fatal(err)
	}
	if got := srv.Conflicts(); got != 0 {
		t.Fatalf("identical rewrite counted as conflict: %d", got)
	}
	// A buggy writer: same key, different bytes. Counted, and LWW.
	if err := c.Put(k, []byte(`{"sc":2}`)); err != nil {
		t.Fatal(err)
	}
	if got := srv.Conflicts(); got != 1 {
		t.Fatalf("conflicts=%d, want 1", got)
	}
	v, ok, _ := c.Get(k)
	if !ok || string(v) != `{"sc":2}` {
		t.Fatalf("last write must win: %q ok=%v", v, ok)
	}
}

func TestBatchRoundTripGzip(t *testing.T) {
	ts, srv, _ := newServer(t)
	c := newClient(t, ts.URL)

	entries := make([]store.Entry, 40)
	keys := make([]string, len(entries))
	for i := range entries {
		keys[i] = store.Key("v1", i)
		entries[i] = store.Entry{Key: keys[i], Val: []byte(fmt.Sprintf(`{"i":%d}`, i))}
	}
	added, err := c.PutBatch(entries)
	if err != nil || added != len(entries) {
		t.Fatalf("PutBatch: added=%d err=%v, want %d", added, err, len(entries))
	}
	// Re-putting the same batch adds nothing and conflicts nothing.
	added, err = c.PutBatch(entries)
	if err != nil || added != 0 {
		t.Fatalf("duplicate PutBatch: added=%d err=%v, want 0", added, err)
	}
	if got := srv.Conflicts(); got != 0 {
		t.Fatalf("conflicts=%d, want 0", got)
	}

	got, err := c.GetBatch(append([]string{store.Key("v1", "absent")}, keys...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("GetBatch returned %d entries, want %d (absent keys omitted)", len(got), len(keys))
	}
	for i, k := range keys {
		if string(got[k]) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %d: %q", i, got[k])
		}
	}
	if r := srv.Requests(); r.MGet != 1 || r.MPut != 2 || r.Get != 0 || r.Put != 0 {
		t.Fatalf("batch calls must be single requests: %+v", r)
	}
}

// TestClientEncodingPerEndpoint pins which bodies the client gzips: the
// result point get and put travel plain, both ways, and batch and blob
// bodies are gzipped both ways. The server gzips a reply exactly when the
// request accepts gzip, so the request headers decide both directions.
func TestClientEncodingPerEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBlobs(fb)
	defer st.Close()
	srv := remote.NewServer(st)
	var mu sync.Mutex
	seen := map[string]string{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = "body=" + r.Header.Get("Content-Encoding") + " accept=" + r.Header.Get("Accept-Encoding")
		mu.Unlock()
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := newClient(t, ts.URL)

	k, v := store.Key("v1", "enc"), []byte(`{"sc":1}`)
	if err := c.Put(k, v); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.Get(k); !ok || err != nil || !bytes.Equal(got, v) {
		t.Fatalf("point round trip: %q ok=%v err=%v", got, ok, err)
	}
	if _, err := c.PutBatch([]store.Entry{{Key: k, Val: v}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetBatch([]string{k}); err != nil {
		t.Fatal(err)
	}
	if err := c.BlobPut(k, []byte("trace")); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := c.BlobGet(k); !ok || err != nil || string(got) != "trace" {
		t.Fatalf("blob round trip: %q ok=%v err=%v", got, ok, err)
	}
	for path, want := range map[string]string{
		"/v1/put":      "body= accept=identity",
		"/v1/get":      "body= accept=identity",
		"/v1/mput":     "body=gzip accept=gzip",
		"/v1/mget":     "body=gzip accept=gzip",
		"/v1/blob/put": "body=gzip accept=gzip",
		"/v1/blob/get": "body= accept=gzip",
	} {
		if seen[path] != want {
			t.Errorf("%s: %q, want %q", path, seen[path], want)
		}
	}
}

// TestMGetWireShapeIsGzippedRSB1 pins the byte-level wire shape of a
// batch round trip for non-Go clients: a gzipped RSB1 request body
// ("RSB1", then uvarint-length-prefixed key and value per record, values
// empty for a key list) and a gzipped RSB1 reply carrying the stored value
// verbatim.
func TestMGetWireShapeIsGzippedRSB1(t *testing.T) {
	ts, _, st := newServer(t)
	k := store.Key("v1", "unit")
	v := `{"sc":7}`
	st.Put(k, []byte(v))

	// A 64-hex-digit key and a short value: every length fits one uvarint byte.
	record := func(key, val string) string {
		return string([]byte{byte(len(key))}) + key + string([]byte{byte(len(val))}) + val
	}
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zw.Write([]byte("RSB1" + record(k, "") + record(store.Key("v1", "absent"), "")))
	zw.Close()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/mget", &body)
	req.Header.Set("Content-Type", "application/x-rsbin")
	req.Header.Set("Content-Encoding", "gzip")
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mget: %s", resp.Status)
	}
	for h, want := range map[string]string{
		"Content-Type":       "application/x-rsbin",
		"Content-Encoding":   "gzip",
		remote.VersionHeader: remote.ProtocolVersion,
		remote.EpochHeader:   "0",
	} {
		if got := resp.Header.Get(h); got != want {
			t.Fatalf("reply header %s = %q, want %q", h, got, want)
		}
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if want := "RSB1" + record(k, v); string(got) != want {
		t.Fatalf("reply body %q, want %q", got, want)
	}
}

// TestBoundedRetries pins the retry budget: transient 5xx responses are
// retried and absorbed; a persistently failing server costs the budget and
// then degrades to a counted miss in the wrapping Store — never an error
// into the simulation.
func TestBoundedRetries(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := remote.NewServer(st)
	k := store.Key("v1", "flaky")
	st.Put(k, []byte(`{"sc":3}`))

	var failures atomic.Int64
	failures.Store(2) // first two attempts 500, then healthy
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := newClient(t, ts.URL)
	v, ok, err := c.Get(k)
	if !ok || err != nil || string(v) != `{"sc":3}` {
		t.Fatalf("retries did not absorb transient failures: %q ok=%v err=%v", v, ok, err)
	}
	if cs := c.Stats(); cs.Retried != 2 || cs.NetErrors != 0 {
		t.Fatalf("stats %+v, want retried=2 netErrors=0", cs)
	}

	// A dead server: the wrapping Store turns the spent budget into a miss.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer dead.Close()
	dc := newClient(t, dead.URL)
	wrapped := store.New(4, dc)
	if _, ok := wrapped.Get(k); ok {
		t.Fatal("dead server served a hit")
	}
	s := wrapped.Stats()
	if s.Misses != 1 || s.Corrupt != 1 {
		t.Fatalf("dead server must read as a counted miss: %+v", s)
	}
	if cs := dc.Stats(); cs.NetErrors != 1 || cs.Retried != remote.DefaultRetries {
		t.Fatalf("dead-server stats %+v, want netErrors=1 retried=%d", cs, remote.DefaultRetries)
	}
	// Writes degrade to memory-only, also counted, also not errors.
	wrapped.Put(k, []byte(`{"sc":3}`))
	if s := wrapped.Stats(); s.PutErrors != 1 {
		t.Fatalf("put against dead server must count: %+v", s)
	}
	if v, ok := wrapped.Get(k); !ok || string(v) != `{"sc":3}` {
		t.Fatal("memory-only degradation lost the value")
	}
}

// TestProtocolVersionEnforced pins that the client refuses non-stored
// endpoints instead of misreading them as cold caches, with no retries —
// the mismatch is deterministic.
func TestProtocolVersionEnforced(t *testing.T) {
	impostor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"k":"x","v":1}`)
	}))
	defer impostor.Close()
	c := newClient(t, impostor.URL)
	if _, ok, err := c.Get("x"); ok || err == nil {
		t.Fatalf("impostor endpoint accepted: ok=%v err=%v", ok, err)
	}
	if cs := c.Stats(); cs.Retried != 0 {
		t.Fatalf("version mismatch must not be retried: %+v", cs)
	}
	if _, err := c.Ping(); err == nil {
		t.Fatal("Ping accepted an impostor endpoint")
	}
}

func TestClientForEachRefuses(t *testing.T) {
	ts, _, _ := newServer(t)
	c := newClient(t, ts.URL)
	if err := c.ForEach(func(string, []byte) error { return nil }); err == nil {
		t.Fatal("remote ForEach must refuse (stores are pushed to, not enumerated)")
	}
}

func TestNewClientValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "ftp://host", "http://"} {
		if _, err := remote.NewClient(bad, nil); err == nil {
			t.Errorf("NewClient(%q) accepted", bad)
		}
	}
}

// TestCompactEndpoint drives /v1/compact end to end: overwrites accumulate
// dead log lines on the server, compaction sheds them without losing an
// entry.
func TestCompactEndpoint(t *testing.T) {
	ts, _, st := newServer(t)
	c := newClient(t, ts.URL)
	k := store.Key("v1", "rewritten")
	for i := 0; i < 5; i++ {
		st.Put(k, []byte(`{"sc":1}`)) // 4 dead lines behind the live one
	}
	st.Put(store.Key("v1", "other"), []byte(`{"sc":2}`))
	resp, err := http.Post(ts.URL+"/v1/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr remote.CompactReply
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || cr.Kept != 2 || cr.Dropped != 4 {
		t.Fatalf("compact = %s %+v err=%v, want 200, kept 2, dropped 4", resp.Status, cr, err)
	}
	if v, ok := st.Get(k); !ok || string(v) != `{"sc":1}` {
		t.Fatalf("entry lost in compaction: %q ok=%v", v, ok)
	}
	sr, err := c.Ping()
	if err != nil || sr.Len != 2 {
		t.Fatalf("stats after compact: %+v err=%v", sr, err)
	}
}

// TestMountTiers pins the CLI composition matrix of -cache and -store.
func TestMountTiers(t *testing.T) {
	ts, srv, _ := newServer(t)

	// Nothing: an empty memory-only store, with no clients and no ring.
	st, cl, ring, err := remote.MountFleet("", "")
	if err != nil || st == nil || cl != nil || ring != nil {
		t.Fatalf("MountFleet of nothing: %v %v %v %v", st, cl, ring, err)
	}
	if st.Len() != 0 || st.Blobs() != nil || st.Batched() {
		t.Fatalf("MountFleet of nothing: len=%d blobs=%v batched=%v, want an empty memory-only store", st.Len(), st.Blobs(), st.Batched())
	}
	st.Close()

	// Remote only: writes land on the server.
	st, cl, _, err = remote.MountFleet("", ts.URL)
	if err != nil || st == nil || cl == nil {
		t.Fatalf("MountFleet remote: %v", err)
	}
	k := store.Key("v1", "shared")
	st.Put(k, []byte(`{"sc":5}`))
	st.Close()

	// Local front over remote: the first Get pulls the key down into the
	// local tier; after that the fleet store is not consulted for it.
	dir := t.TempDir()
	st, _, _, err = remote.MountFleet(dir, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get(k); !ok || string(v) != `{"sc":5}` {
		t.Fatalf("tiered read through: %q ok=%v", v, ok)
	}
	st.Close()
	getsBefore := srv.Requests().Get
	st, _, _, err = remote.MountFleet(dir, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if v, ok := st.Get(k); !ok || string(v) != `{"sc":5}` {
		t.Fatalf("near-tier read: %q ok=%v", v, ok)
	}
	if got := srv.Requests().Get; got != getsBefore {
		t.Fatalf("near-tier hit still consulted the fleet store (%d → %d gets)", getsBefore, got)
	}

	// Fail fast on an unreachable or impostor store.
	if _, _, _, err := remote.MountFleet("", "http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable store URL accepted")
	}
	impostor := httptest.NewServer(http.NotFoundHandler())
	defer impostor.Close()
	if _, _, _, err := remote.MountFleet("", impostor.URL); err == nil {
		t.Fatal("impostor store URL accepted")
	}
}

// TestMountRouterSpreadsKeySpace pins the -store URL1,URL2,… composition:
// a comma-separated list mounts a Router, every replica is pinged at mount
// (one dead member fails the whole mount loudly), writes spread across the
// instances by the stable partition, and reads find every key again.
func TestMountRouterSpreadsKeySpace(t *testing.T) {
	ts1, srv1, auth1 := newServer(t)
	ts2, srv2, auth2 := newServer(t)
	list := ts1.URL + "," + ts2.URL

	st, cls, _, err := remote.MountFleet("", list)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(cls) != 2 || cls[0].URL() != ts1.URL || cls[1].URL() != ts2.URL {
		t.Fatalf("MountFleet returned clients %v, want one per URL in order", cls)
	}

	const n = 40
	keys := make([]string, n)
	for i := range keys {
		keys[i] = store.Key("v1", i)
		st.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	if auth1.Len() == 0 || auth2.Len() == 0 {
		t.Fatalf("replica fill %d/%d: routing is degenerate", auth1.Len(), auth2.Len())
	}
	if auth1.Len()+auth2.Len() != n || st.Len() != n {
		t.Fatalf("replicas hold %d+%d, store Len %d, want disjoint total %d",
			auth1.Len(), auth2.Len(), st.Len(), n)
	}
	for i, k := range keys {
		owner := store.FlagRing(ts1.URL, ts2.URL).Owner(k)
		if got := []*store.Store{auth1, auth2}[owner].Has(k); !got {
			t.Fatalf("key %d not on its owner replica %d", i, owner)
		}
	}

	// Prefetch splits into one concurrent mget per replica and the per-key
	// reads that follow are all served warm.
	fresh, _, _, err := remote.MountFleet("", list)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	present := fresh.Prefetch(keys)
	if len(present) != n {
		t.Fatalf("Prefetch marked %d of %d keys present", len(present), n)
	}
	for _, srv := range []*remote.Server{srv1, srv2} {
		if r := srv.Requests(); r.MGet != 1 {
			t.Fatalf("prefetch issued %d mgets on a replica, want exactly 1", r.MGet)
		}
	}
	for i, k := range keys {
		if v, ok := fresh.Get(k); !ok || string(v) != fmt.Sprintf(`{"i":%d}`, i) {
			t.Fatalf("key %d through router: %q ok=%v", i, v, ok)
		}
	}
	if r1, r2 := srv1.Requests(), srv2.Requests(); r1.Get != 0 || r2.Get != 0 {
		t.Fatalf("warm reads went point (%d, %d point gets), want all served by the prefetch", r1.Get, r2.Get)
	}

	// A dead member anywhere in the list fails the mount, naming it — and a
	// list that names no member at all (unset env vars leaving just ",") is
	// a loud error, not a silently memory-only run.
	if _, _, _, err := remote.MountFleet("", ts1.URL+",http://127.0.0.1:1"); err == nil {
		t.Fatal("replica list with a dead member accepted")
	}
	for _, empty := range []string{",", " , ", ",,"} {
		if _, _, _, err := remote.MountFleet("", empty); err == nil {
			t.Fatalf("empty URL list %q accepted", empty)
		}
	}
}
