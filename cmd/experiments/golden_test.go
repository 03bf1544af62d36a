package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestQuickJSONGolden pins the bytes of `experiments -quick -json`, the
// repo's reproduction of the paper's claims at reduced scale. The golden
// records the runner.CacheVersion it was produced under: the simulator's
// observable output may only change together with a version bump, which
// also retires every stored result the old bytes came from.
func TestQuickJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "quick.json", "go run ./cmd/experiments -quick -json")
}

// TestFullJSONGolden pins the full-scale `experiments -json` bytes the
// same way. It runs the whole suite, so -short skips it.
func TestFullJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale suite; run without -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, buf.Bytes(), "full.json", "go run ./cmd/experiments -json")
}

// checkGolden compares got with testdata/name and its recorded
// CacheVersion (testdata/name.cacheversion). Either failure prints the
// command that regenerates both files from the repo root.
func checkGolden(t *testing.T, got []byte, name, cmd string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile(filepath.Join("testdata", name+".cacheversion"))
	if err != nil {
		t.Fatal(err)
	}
	dir := "cmd/experiments/testdata/"
	regen := fmt.Sprintf("%s > %s%s && echo %s > %s%s.cacheversion", cmd, dir, name, runner.CacheVersion, dir, name)
	if v := strings.TrimSpace(string(recorded)); v != runner.CacheVersion {
		t.Fatalf("testdata/%s was produced under CacheVersion %s, the tree is at %s; regenerate it:\n  %s", name, v, runner.CacheVersion, regen)
	}
	if !bytes.Equal(got, want) {
		i, g, w := firstDiff(got, want)
		t.Fatalf("output changed without a CacheVersion bump (testdata/%s, line %d):\ngot  %s\nwant %s\nbump runner.CacheVersion and regenerate, writing the new version in place of %s:\n  %s", name, i+1, g, w, runner.CacheVersion, regen)
	}
}

// firstDiff returns the first line index where a and b differ, and that
// line of each ("" past the end).
func firstDiff(a, b []byte) (int, string, string) {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y || i >= len(la) || i >= len(lb) {
			return i, x, y
		}
	}
}
