package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/mutex"
	"repro/internal/runner"
)

// greedyGoldenCells lists the "algo/n" cells of the greedy golden: every
// registered algorithm at n = 32 and n = 64, past the n = 16 the
// tournament and E13 goldens stop at. Filter stops at n = 32 (its factory
// holds Θ(n³) instructions) and Dekker's algorithm is two-process only.
func greedyGoldenCells() []string {
	var cells []string
	for _, name := range repro.Algorithms() {
		for _, n := range []int{32, 64} {
			if name == mutex.NameDekker || name == mutex.NameFilter && n > 32 {
				continue
			}
			cells = append(cells, fmt.Sprintf("%s/%d", name, n))
		}
	}
	return cells
}

// TestGreedyGolden pins the bytes of `mutexsim -sched greedy-cost -json`,
// one line per cell of greedyGoldenCells, in that order: the lookahead
// adversary's whole canonical run at sizes the other goldens never reach.
// Like the tournament golden, it records the runner.CacheVersion it was
// produced under.
func TestGreedyGolden(t *testing.T) {
	var got bytes.Buffer
	cells := greedyGoldenCells()
	for _, cell := range cells {
		algo, n, _ := strings.Cut(cell, "/")
		if err := run([]string{"-algo", algo, "-n", n, "-sched", "greedy-cost", "-json"}, &got); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
	}
	cmd := fmt.Sprintf("for c in %s; do go run ./cmd/mutexsim -algo ${c%%/*} -n ${c#*/} -sched greedy-cost -json; done", strings.Join(cells, " "))
	checkGolden(t, got.Bytes(), "greedy.jsonl", cmd)
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
	dir := "cmd/mutexsim/testdata/"
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
