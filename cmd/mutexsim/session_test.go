package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/session/sessiontest"
	"repro/internal/store"
)

// TestSessionFlagValidation drives the shared bad-combination table: this
// binary must reject exactly what every other session-backed binary
// rejects, with the same words.
func TestSessionFlagValidation(t *testing.T) { sessiontest.Run(t, run) }

// TestRefusesShard pins that -shard is refused rather than ignored: a
// prime pass prints no data output, which this binary cannot honour, so
// it fails before printing anything or writing to the store.
func TestRefusesShard(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-algo", "mcs", "-n", "6", "-json", "-cache", dir, "-shard", "1/2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-shard is a batch priming mode") {
		t.Fatalf("-shard: err = %v, want the priming-mode refusal", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("-shard: wrote %d bytes of data output before refusing:\n%s", buf.Len(), buf.String())
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := st.Len(); n != 0 {
		t.Fatalf("-shard: refused run stored %d entries, want 0", n)
	}
}

// TestJSONCachedOutputUnchanged pins the -json path's determinism through
// the store: a warm re-run serves the unit from cache and prints the same
// single JSON line as the cold run and as a run with no store flag.
func TestJSONCachedOutputUnchanged(t *testing.T) {
	base := []string{"-algo", "mcs", "-n", "6", "-json"}
	dir := t.TempDir()
	var plain, cold, warm bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	withCache := append(append([]string{}, base...), "-cache", dir)
	if err := run(withCache, &cold); err != nil {
		t.Fatal(err)
	}
	if err := run(withCache, &warm); err != nil {
		t.Fatal(err)
	}
	if plain.String() != cold.String() || cold.String() != warm.String() {
		t.Fatalf("outputs diverged:\nplain: %swith cache (cold): %swith cache (warm): %s", plain.String(), cold.String(), warm.String())
	}
	if n := strings.Count(warm.String(), "\n"); n != 1 {
		t.Fatalf("-json printed %d lines, want exactly 1", n)
	}
}

// TestTextOutputStoreIndifferent pins the human-readable path: the views
// always execute, so a mounted store must not change a single byte.
func TestTextOutputStoreIndifferent(t *testing.T) {
	base := []string{"-algo", "yang-anderson", "-n", "3", "-steps", "-timeline", "-summary"}
	var plain, cached bytes.Buffer
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, base...), "-cache", t.TempDir()), &cached); err != nil {
		t.Fatal(err)
	}
	if plain.String() != cached.String() {
		t.Fatalf("text output changed under -cache:\n%s\nvs\n%s", cached.String(), plain.String())
	}
}
