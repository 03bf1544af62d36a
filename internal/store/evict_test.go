package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openAgedLog opens an NDJSON log in a fresh directory whose first line is
// a record written before lifecycles existed (no "t" field), and pins the
// clock the following puts stamp their records with.
func openAgedLog(t *testing.T) (*NDJSON, func(time.Time)) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ndjsonName), []byte(`{"k":"legacy","v":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OpenNDJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	old := nowFn
	t.Cleanup(func() { nowFn = old })
	return b, func(at time.Time) { nowFn = func() time.Time { return at } }
}

// TestEvictOlderThan pins age eviction: records stamped before the cutoff
// are de-indexed, records stamped at or after it stay, a record with no
// timestamp never ages out, and the evicted lines are dead bytes the next
// Compact reclaims.
func TestEvictOlderThan(t *testing.T) {
	b, at := openAgedLog(t)
	t0 := time.Unix(1_700_000_000, 0)
	at(t0)
	b.Put("old1", []byte(`1`))
	b.Put("old2", []byte(`2`))
	at(t0.Add(time.Minute))
	b.Put("fresh", []byte(`3`))

	if n := b.EvictOlderThan(t0); n != 0 {
		t.Fatalf("cutoff at the oldest stamp evicted %d records, want 0", n)
	}
	dead := b.DeadBytes()
	if n := b.EvictOlderThan(t0.Add(time.Second)); n != 2 {
		t.Fatalf("evicted %d records, want the 2 stamped before the cutoff", n)
	}
	for k, want := range map[string]bool{"legacy": true, "old1": false, "old2": false, "fresh": true} {
		if b.Has(k) != want {
			t.Fatalf("after eviction Has(%s) = %v, want %v", k, !want, want)
		}
	}
	if b.Len() != 2 || b.DeadBytes() <= dead {
		t.Fatalf("after eviction len=%d dead=%d (was %d), want 2 live and more dead bytes", b.Len(), b.DeadBytes(), dead)
	}
	if kept, dropped, err := b.Compact(); err != nil || kept != 2 || dropped != 2 || b.DeadBytes() != 0 {
		t.Fatalf("compact after eviction: kept=%d dropped=%d dead=%d err=%v, want 2, 2, 0", kept, dropped, b.DeadBytes(), err)
	}
}

// TestEvictToSize pins size eviction: nothing goes while the live bytes
// fit, and past the bound records go oldest first — the untimestamped
// record before any stamped one, records stamped in the same second in
// file order — until the live bytes fit.
func TestEvictToSize(t *testing.T) {
	b, at := openAgedLog(t)
	t0 := time.Unix(1_700_000_000, 0)
	at(t0)
	b.Put("a1", []byte(`1`))
	b.Put("a2", []byte(`2`))
	at(t0.Add(time.Second))
	b.Put("a3", []byte(`3`))

	live := func() int64 { return b.SizeBytes() - b.DeadBytes() }
	if n := b.EvictToSize(live()); n != 0 {
		t.Fatalf("a log that fits its bound evicted %d records", n)
	}
	// Every stamped line has one length, so two of them fit exactly.
	line := b.idx["a3"].len
	if n := b.EvictToSize(2 * line); n != 2 {
		t.Fatalf("evicted %d records, want 2", n)
	}
	for k, want := range map[string]bool{"legacy": false, "a1": false, "a2": true, "a3": true} {
		if b.Has(k) != want {
			t.Fatalf("after eviction Has(%s) = %v, want %v", k, !want, want)
		}
	}
	if live() != 2*line {
		t.Fatalf("live bytes %d after eviction, want %d", live(), 2*line)
	}
	if n := b.EvictToSize(line + line/2); n != 1 || !b.Has("a3") {
		t.Fatalf("a bound between one and two lines evicted %d records (a3 kept: %v), want 1 and a3 kept", n, b.Has("a3"))
	}
}
