package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/store"
)

// captureOne runs one job with capture on into a file-backed store and
// returns the store directory and the captured key.
func captureOne(t *testing.T) (dir, key string) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := store.OpenFileBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.SetBlobs(fb)
	j := runner.Job{Algo: "yang-anderson", N: 3, Sched: machine.RoundRobinSpec()}
	eng := runner.NewCached(runner.New(1), st).WithCapture(true)
	if err := eng.Run([]runner.Job{j}, func(r runner.Result) error { return r.Err }); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, j.CacheKey()
}

func observe(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("observe %v: %v", args, err)
	}
	return out.String()
}

func TestObserveViews(t *testing.T) {
	dir, key := captureOne(t)

	list := observe(t, "-cache", dir, "-list")
	if !strings.Contains(list, key) || !strings.Contains(list, "algo=yang-anderson n=3") {
		t.Fatalf("-list missing the captured trace:\n%s", list)
	}

	full := observe(t, "-cache", dir, key)
	for _, want := range []string{"trace " + key, "algo=yang-anderson n=3", "p0", "CS-interval"} {
		if !strings.Contains(full, want) {
			t.Errorf("default view missing %q:\n%s", want, full)
		}
	}

	heat := observe(t, "-cache", dir, "-heatmap", key)
	if !strings.Contains(heat, "register") || !strings.Contains(heat, "charged") {
		t.Errorf("heatmap missing header:\n%s", heat)
	}

	meta := observe(t, "-cache", dir, "-metasteps", key)
	if !strings.Contains(meta, "metasteps over") {
		t.Errorf("metasteps missing footer:\n%s", meta)
	}

	capped := observe(t, "-cache", dir, "-max", "5", key)
	if len(capped) >= len(full) {
		t.Errorf("-max 5 did not shorten the timeline (%d vs %d bytes)", len(capped), len(full))
	}
}

// TestViewsSumToHeaderSC: every view reads the changed flags the verified
// record carries, so the summary's SC-cost column, the heatmap's charged
// column and the metastep count all equal the header's sc= for a captured
// trace.
func TestViewsSumToHeaderSC(t *testing.T) {
	dir, key := captureOne(t)
	sc := -1
	sums := map[string]int{}
	for _, view := range []string{"-summary", "-heatmap", "-metasteps"} {
		for _, line := range strings.Split(observe(t, "-cache", dir, view, key), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) == 4 && strings.HasPrefix(f[3], "sc="):
				sc = atoi(t, strings.TrimPrefix(f[3], "sc="))
			case view == "-summary" && len(f) > 2 && f[0] != "proc" && strings.HasPrefix(f[0], "p"):
				sums[view] += atoi(t, f[2])
			case view == "-heatmap" && len(f) > 4 && f[0] != "register":
				sums[view] += atoi(t, f[4])
			case view == "-metasteps" && strings.Contains(line, "metasteps over"):
				sums[view] = atoi(t, f[0])
			}
		}
	}
	if sc <= 0 {
		t.Fatalf("no positive sc= in the header (got %d)", sc)
	}
	for view, sum := range sums {
		if sum != sc {
			t.Errorf("%s sums to %d, header says sc=%d", view, sum, sc)
		}
	}
	if len(sums) != 3 {
		t.Errorf("parsed %d of 3 views: %v", len(sums), sums)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestObserveRejectsMissingKeyAndMount(t *testing.T) {
	if err := run([]string{"-list"}, &bytes.Buffer{}); err == nil {
		t.Error("no -cache/-store accepted")
	}
	dir, _ := captureOne(t)
	if err := run([]string{"-cache", dir, strings.Repeat("0", 64)}, &bytes.Buffer{}); err == nil {
		t.Error("unknown key accepted")
	}
	if err := run([]string{"-cache", dir}, &bytes.Buffer{}); err == nil {
		t.Error("missing KEY argument accepted")
	}
}
