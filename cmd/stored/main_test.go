package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/remote"
	"repro/internal/store"
)

// syncBuffer lets the test read run's output while run is still writing it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("missing -dir accepted")
	}
	if err := run([]string{"-dir", t.TempDir(), "-compact", t.TempDir()}, &buf); err == nil {
		t.Fatal("-dir combined with -compact accepted")
	}
	if err := run([]string{"-dir", t.TempDir(), "stray"}, &buf); err == nil {
		t.Fatal("stray positional argument accepted")
	}
	if err := run([]string{"-addr", "not-an-address", "-dir", t.TempDir()}, &buf); err == nil {
		t.Fatal("unlistenable address accepted")
	}
}

// TestCompactMaintenanceMode pins the offline maintenance flag: it rewrites
// the log in place, reports the reclaim, and exits.
func TestCompactMaintenanceMode(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := store.Key("v1", "unit")
	for i := 0; i < 4; i++ {
		store.PutJSON(st, k, 9)
	}
	st.Close()

	var buf bytes.Buffer
	if err := run([]string{"-compact", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "kept=1 dropped=3"; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("compact report %q does not contain %q", buf.String(), want)
	}
	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if v, ok := store.GetJSON[int](st2, k); !ok || v != 9 || st2.Len() != 1 {
		t.Fatalf("after maintenance compact: v=%d ok=%v len=%d", v, ok, st2.Len())
	}
}

// TestCompactMaintenanceModeCompactsBlobs pins that -compact DIR rewrites
// the blob log beside the result log: its dead lines go, and the live
// trace reads back.
func TestCompactMaintenanceModeCompactsBlobs(t *testing.T) {
	dir := t.TempDir()
	fb, err := store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := store.Key("v1", "trace")
	for i := 0; i < 3; i++ {
		if err := fb.BlobPut(k, []byte("trace bytes")); err != nil {
			t.Fatal(err)
		}
	}
	size := fb.Log().SizeBytes()
	fb.Close()

	var buf bytes.Buffer
	if err := run([]string{"-compact", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if want := "kept=1 dropped=2"; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("compact report %q does not contain %q", buf.String(), want)
	}
	fb, err = store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if got := fb.Log().SizeBytes(); got != size/3 || fb.Log().Superseded() != 0 {
		t.Fatalf("blob log is %d bytes with %d superseded lines after compaction, want %d and 0", got, fb.Log().Superseded(), size/3)
	}
	if v, ok, err := fb.BlobGet(k); err != nil || !ok || string(v) != "trace bytes" {
		t.Fatalf("trace after compaction: %q ok=%v err=%v", v, ok, err)
	}
}

// serve runs stored with args until the returned stop, which shuts it down
// cleanly, and scrapes the address it advertises the way a script would.
func serve(t *testing.T, args ...string) (url string, out *syncBuffer, stop func()) {
	t.Helper()
	testShutdown = make(chan struct{})
	t.Cleanup(func() { testShutdown = nil })
	out = &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(args, out) }()

	addrRE := regexp.MustCompile(`listening on (http://[0-9.:]+)`)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			url = m[1]
			break
		}
	}
	if url == "" {
		t.Fatalf("no scrapeable address in output: %q", out.String())
	}
	return url, out, func() {
		t.Helper()
		close(testShutdown)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("clean shutdown returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stored did not shut down")
		}
	}
}

// TestServeScrapeableAddressAndCleanShutdown boots the real binary path on
// an ephemeral port, scrapes the advertised address the way a script
// would, talks the protocol through a real client, and shuts down cleanly.
func TestServeScrapeableAddressAndCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	url, _, stop := serve(t, "-addr", "127.0.0.1:0", "-dir", dir)

	cl, err := remote.NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	k := store.Key("v1", "served")
	if err := cl.Put(k, []byte(`{"sc":1}`)); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(k); !ok || err != nil || string(v) != `{"sc":1}` {
		t.Fatalf("round trip through stored: %q ok=%v err=%v", v, ok, err)
	}

	stop()

	// Durability across the service lifecycle: a fresh serve finds the entry.
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if v, ok := st.Get(k); !ok || string(v) != `{"sc":1}` {
		t.Fatalf("entry lost across shutdown: %q ok=%v", v, ok)
	}
}

// TestLifecycleMaintainsBothLogs pins that the lifecycle loop bounds and
// compacts the blob log as it does the result log: under -max-bytes 1 the
// result and the trace are both evicted, and compaction leaves both logs
// empty.
func TestLifecycleMaintainsBothLogs(t *testing.T) {
	dir := t.TempDir()
	url, out, stop := serve(t, "-addr", "127.0.0.1:0", "-dir", dir, "-max-bytes", "1", "-maintain", "5ms")
	cl, err := remote.NewClient(url, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	k := store.Key("v1", "aged")
	if err := cl.Put(k, []byte(`{"sc":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := cl.BlobPut(k, []byte("trace bytes")); err != nil {
		t.Fatal(err)
	}
	// Both evictions, then a compaction after the later of them.
	done := func() bool {
		s := out.String()
		r, b := strings.Index(s, "evicted 1 results"), strings.Index(s, "evicted 1 traces")
		return r >= 0 && b >= 0 && strings.Contains(s[max(r, b):], "auto-compacted")
	}
	for deadline := time.Now().Add(5 * time.Second); !done() && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
	}
	stop()
	if !done() {
		t.Fatalf("lifecycle did not evict and compact both logs: %q", out.String())
	}

	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fb, err := store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if st.Len() != 0 || fb.BlobLen() != 0 || fb.Log().SizeBytes() != 0 {
		t.Fatalf("after maintenance: %d results, %d traces, %d blob log bytes; want all 0", st.Len(), fb.BlobLen(), fb.Log().SizeBytes())
	}
}
