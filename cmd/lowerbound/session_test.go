package main

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mutex"
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
	err := run([]string{"-algo", "yang-anderson", "-n", "4", "-cache", dir, "-shard", "1/2"}, &buf)
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

// TestCachedOutputUnchanged pins the session port's contract: adding
// -cache changes nothing on stdout — cold and warm runs print the same
// bytes as a run with no store flag, for both the single-proof and -all
// paths.
func TestCachedOutputUnchanged(t *testing.T) {
	for _, base := range [][]string{
		{"-algo", "yang-anderson", "-n", "4", "-seed", "3"},
		{"-algo", "bakery", "-n", "4", "-all"},
	} {
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
		if plain.String() != cold.String() {
			t.Fatalf("%v: cold cached output diverged from the no-flag output:\n%s\nvs\n%s", base, cold.String(), plain.String())
		}
		if cold.String() != warm.String() {
			t.Fatalf("%v: warm output diverged from cold:\n%s\nvs\n%s", base, warm.String(), cold.String())
		}
	}
}

// countedAlgo is yang-anderson under a test-only name, registered with a
// wrapper that counts the factories it builds.
const countedAlgo = "counted-yang-anderson"

var factoryBuilds atomic.Int64

func init() {
	mutex.Register(countedAlgo, func(n int) (*mutex.Factory, error) {
		factoryBuilds.Add(1)
		return mutex.YangAnderson(n)
	})
}

// TestWarmProofBuildsNoFactory pins that a single-permutation proof the
// store serves builds no factory: the cold run builds exactly one, the
// warm run none, and both print the same bytes.
func TestWarmProofBuildsNoFactory(t *testing.T) {
	args := []string{"-algo", countedAlgo, "-n", "4", "-perm", "2,0,3,1", "-cache", t.TempDir()}
	var cold, warm bytes.Buffer
	factoryBuilds.Store(0)
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	if n := factoryBuilds.Load(); n != 1 {
		t.Fatalf("cold run built %d factories, want 1", n)
	}
	factoryBuilds.Store(0)
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if n := factoryBuilds.Load(); n != 0 {
		t.Fatalf("warm run built %d factories, want 0", n)
	}
	if cold.String() != warm.String() {
		t.Fatalf("warm output diverged from cold:\n%s\nvs\n%s", warm.String(), cold.String())
	}
	// -v always runs the pipeline, so it builds the factory again.
	factoryBuilds.Store(0)
	if err := run(append(args, "-v"), io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := factoryBuilds.Load(); n != 1 {
		t.Fatalf("-v run built %d factories, want 1", n)
	}
}

// TestUnknownAlgorithmFails pins that an algorithm no one registered is
// an error on both paths, with nothing printed.
func TestUnknownAlgorithmFails(t *testing.T) {
	for _, args := range [][]string{
		{"-algo", "no-such-lock", "-n", "3"},
		{"-algo", "no-such-lock", "-n", "3", "-cache", t.TempDir()},
		{"-algo", "no-such-lock", "-n", "3", "-all"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), `unknown algorithm "no-such-lock"`) {
			t.Fatalf("%v: err = %v, want the unknown-algorithm error", args, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%v: printed %q before failing", args, buf.String())
		}
	}
}
