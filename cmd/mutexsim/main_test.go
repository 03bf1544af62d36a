package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/runner"
)

// TestRunSmoke drives a tiny canonical run for every scheduler the flag
// accepts, including the new greedy-cost adversary, and checks the verdict
// line.
func TestRunSmoke(t *testing.T) {
	for _, sched := range []string{"round-robin", "random", "solo", "progress-first", "hold-cs", "greedy-cost"} {
		var buf bytes.Buffer
		if err := run([]string{"-algo", "yang-anderson", "-n", "3", "-sched", sched}, &buf); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		out := buf.String()
		if !strings.Contains(out, "verify     ok") {
			t.Fatalf("%s: verification did not pass:\n%s", sched, out)
		}
		if !strings.Contains(out, "scheduler  ") || !strings.Contains(out, "SC=") {
			t.Fatalf("%s: missing report lines:\n%s", sched, out)
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-algo", "no-such-algo"}, &buf); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-sched", "no-such-sched"}, &buf); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestAlgoUsageListsEachNameOnce: -algo's help names every registered
// algorithm exactly once, and the runner resolves every one of them.
func TestAlgoUsageListsEachNameOnce(t *testing.T) {
	usage := filepath.Join(t.TempDir(), "usage")
	f, err := os.Create(usage)
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, &bytes.Buffer{})
	os.Stderr = stderr
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(usage)
	if err != nil {
		t.Fatal(err)
	}
	_, help, ok := strings.Cut(string(out), "algorithm (one of: ")
	help, _, _ = strings.Cut(help, ")")
	if !ok {
		t.Fatalf("no -algo help in usage:\n%s", out)
	}
	seen := map[string]int{}
	for _, name := range strings.Split(help, ", ") {
		seen[name]++
	}
	for _, name := range repro.Algorithms() {
		if seen[name] != 1 {
			t.Errorf("-algo help lists %q %d times: %s", name, seen[name], help)
		}
		if _, err := runner.NewFactory(name, 2); err != nil {
			t.Errorf("runner.NewFactory(%q): %v", name, err)
		}
	}
	if len(seen) != len(repro.Algorithms()) {
		t.Errorf("-algo help lists %d names, %d are registered: %s", len(seen), len(repro.Algorithms()), help)
	}
}
