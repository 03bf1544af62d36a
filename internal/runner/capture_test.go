package runner_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/machine"
	"repro/internal/remote"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/trace"
)

// captureStore returns a memory store with a file blob tier mounted.
func captureStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.NewMemory(256)
	fb, err := store.OpenFileBlobs(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.SetBlobs(fb)
	t.Cleanup(func() { st.Close() })
	return st
}

// liveTimeline renders the reference timeline by executing the job fresh,
// outside any store.
func liveTimeline(t *testing.T, j runner.Job) string {
	t.Helper()
	r, exec, changed := runner.ExecuteTraced(j)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	return trace.Timeline(j.N, exec, changed, trace.Options{})
}

// replayTimeline decodes a captured blob, verifies it against a fresh
// factory, and renders its timeline — the whole replay path, with zero
// re-simulation.
func replayTimeline(t *testing.T, blob []byte) string {
	t.Helper()
	rec, err := trace.DecodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	f, err := runner.NewFactory(rec.Algo, rec.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.VerifyRecord(f, rec); err != nil {
		t.Fatal(err)
	}
	return trace.Timeline(rec.N, rec.Exec, rec.Changed, trace.Options{})
}

// TestCaptureReplayTimelineByteIdentical is the determinism contract of
// the whole capture path: capture → blob store → fetch → decode → verify →
// render reproduces the live run's timeline byte for byte, at every worker
// count, and the captured blobs themselves are byte-identical across
// worker counts.
func TestCaptureReplayTimelineByteIdentical(t *testing.T) {
	jobs := testJobs()
	want := make([]string, len(jobs))
	for i, j := range jobs {
		want[i] = liveTimeline(t, j)
	}
	var first map[string][]byte
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			st := captureStore(t)
			eng := runner.NewCached(runner.New(workers), st).WithCapture(true)
			if !eng.Capturing() {
				t.Fatal("WithCapture(true) not capturing")
			}
			collectRun(t, eng, jobs)
			if got := st.Stats().BlobStored; got != int64(len(jobs)) {
				t.Fatalf("captured %d blobs, want %d", got, len(jobs))
			}
			blobs := make(map[string][]byte, len(jobs))
			for i, j := range jobs {
				k := j.CacheKey()
				blob, ok := st.BlobGet(k)
				if !ok {
					t.Fatalf("job %d: no captured trace under %s", i, k)
				}
				blobs[k] = blob
				if tl := replayTimeline(t, blob); tl != want[i] {
					t.Errorf("job %d: replayed timeline diverges from live run", i)
				}
			}
			if first == nil {
				first = blobs
			} else {
				for k, b := range blobs {
					if !bytes.Equal(b, first[k]) {
						t.Errorf("blob %s differs from the workers=1 capture", k)
					}
				}
			}

			// A warm re-run is all hits: nothing executes, nothing new is
			// captured.
			collectRun(t, eng, jobs)
			if got := st.Stats().BlobStored; got != int64(len(jobs)) {
				t.Errorf("warm run captured again: %d blobs", got)
			}
		})
	}
}

// TestCaptureThroughRoutedFleet runs capture against a routed two-server
// fleet: blobs place on their ring owners, and a fetch through the router
// replays byte-identically.
func TestCaptureThroughRoutedFleet(t *testing.T) {
	newStored := func() *store.Store {
		t.Helper()
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
		t.Cleanup(func() { st.Close() })
		return st
	}
	newFleetClient := func(st *store.Store) *remote.Client {
		t.Helper()
		ts := httptest.NewServer(remote.NewServer(st))
		t.Cleanup(ts.Close)
		cl, err := remote.NewClient(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	stA, stB := newStored(), newStored()
	rtr := store.NewRouter(newFleetClient(stA), newFleetClient(stB))
	st := store.New(0, rtr)
	st.SetBlobs(rtr)

	jobs := testJobs()
	eng := runner.NewCached(runner.New(4), st).WithCapture(true)
	collectRun(t, eng, jobs)

	if got := stA.BlobLen() + stB.BlobLen(); got != len(jobs) {
		t.Fatalf("fleet holds %d blobs (a=%d b=%d), want %d",
			got, stA.BlobLen(), stB.BlobLen(), len(jobs))
	}
	for i, j := range jobs {
		blob, ok := st.BlobGet(j.CacheKey())
		if !ok {
			t.Fatalf("job %d: trace not fetchable through the fleet", i)
		}
		if tl := replayTimeline(t, blob); tl != liveTimeline(t, j) {
			t.Errorf("job %d: fleet-replayed timeline diverges from live run", i)
		}
	}
}

// TestScheduleCaptureRoundTrip covers the search-side path: an executed
// candidate's trace replays, and its decision genome matches the capture.
func TestScheduleCaptureRoundTrip(t *testing.T) {
	st := captureStore(t)
	eng := runner.NewCached(runner.New(2), st).WithCapture(true)
	jobs := []runner.ScheduleJob{
		{Algo: "yang-anderson", N: 3, Sched: machine.RoundRobinSpec(), KeepDecisions: 8},
		{Algo: "bakery", N: 4, Sched: machine.RandomSpec(11), KeepDecisions: 8},
	}
	if err := eng.RunSchedules(jobs, func(r runner.ScheduleResult) error { return r.Err }); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		blob, ok := st.BlobGet(j.CacheKey())
		if !ok {
			t.Fatalf("candidate %d: no captured trace", i)
		}
		rec, err := trace.DecodeRecord(blob)
		if err != nil {
			t.Fatal(err)
		}
		want, exec, _ := runner.ExecuteScheduleTraced(mustFactory(t, j.Algo, j.N), j)
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		if len(rec.Exec) != len(exec) {
			t.Fatalf("candidate %d: captured %d steps, live %d", i, len(rec.Exec), len(exec))
		}
		for s := range exec {
			if rec.Exec[s] != exec[s] {
				t.Fatalf("candidate %d: step %d diverges", i, s)
			}
		}
	}
}

// TestCaptureDisabledStepZeroAlloc pins the hot-path contract the capture
// feature must not break: with capture off (the default), a steady-state
// System.Step allocates nothing. Capture encodes strictly after
// machine.Run returns, so this holds with capture on too — but the off
// path is the one every sweep pays, so it is the one guarded.
func TestCaptureDisabledStepZeroAlloc(t *testing.T) {
	f, err := runner.NewFactory("tas", 3)
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSystem(f)
	s.Reserve(2048)
	// Let process 0 take the lock; 1..2 then spin on TAS failing.
	for _, i := range []int{0, 0, 0} {
		if _, err := s.Step(i); err != nil {
			t.Fatal(err)
		}
	}
	step := 0
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Step(1 + step%2); err != nil {
			t.Fatal(err)
		}
		step++
	})
	if got != 0 {
		t.Errorf("%.1f allocs per steady-state Step with capture disabled, want 0", got)
	}
}

// BenchmarkCaptureOverhead quantifies what turning capture on costs one
// executed job: off = the plain execution, on = execution + trace encode +
// blob store. The delta is the capture tax; the stepping itself is
// identical in both.
func BenchmarkCaptureOverhead(b *testing.B) {
	j := runner.Job{Algo: "yang-anderson", N: 8, Sched: machine.RoundRobinSpec()}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r, _, _ := runner.ExecuteTraced(j); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		st := store.NewMemory(4)
		fb, err := store.OpenFileBlobs(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		st.SetBlobs(fb)
		defer st.Close()
		k := j.CacheKey()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, exec, changed := runner.ExecuteTraced(j)
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			blob, err := trace.EncodeRecord(trace.Record{Algo: j.Algo, N: j.N, Horizon: j.Horizon, Exec: exec, Changed: changed})
			if err != nil {
				b.Fatal(err)
			}
			st.BlobPut(k, blob)
		}
	})
}
