package runner_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/runner"
	"repro/internal/store"
)

func collectRun(t *testing.T, eng *runner.CachedEngine, jobs []runner.Job) []runner.Result {
	t.Helper()
	var out []runner.Result
	if err := eng.Run(jobs, func(r runner.Result) error {
		if r.Err != nil {
			return r.Err
		}
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func testJobs() []runner.Job {
	var jobs []runner.Job
	for _, n := range []int{3, 4, 5} {
		jobs = append(jobs,
			runner.Job{Algo: "yang-anderson", N: n, Sched: machine.RoundRobinSpec()},
			runner.Job{Algo: "bakery", N: n, Sched: machine.RandomSpec(7)},
		)
	}
	return jobs
}

// TestCachedRunWarmIsByteIdenticalAndExecutesNothing is the cache's core
// contract: a warm run folds exactly the Results a cold run folded, and
// performs zero simulations (every keyed lookup hits).
func TestCachedRunWarmIsByteIdenticalAndExecutesNothing(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jobs := testJobs()

	plain := collectRun(t, runner.NewCached(runner.New(2), nil), jobs)
	cold := collectRun(t, runner.NewCached(runner.New(2), st), jobs)
	if !reflect.DeepEqual(plain, cold) {
		t.Fatalf("cold cached run differs from a fresh engine's run:\n%+v\nvs\n%+v", cold, plain)
	}
	missesAfterCold := st.Stats().Misses
	if missesAfterCold == 0 {
		t.Fatal("cold run reported no misses — nothing was keyed")
	}

	for _, w := range []int{1, 4, 8} {
		warm := collectRun(t, runner.NewCached(runner.New(w), st), jobs)
		if !reflect.DeepEqual(warm, plain) {
			t.Fatalf("warm run (workers=%d) differs from a fresh engine's run", w)
		}
	}
	if got := st.Stats().Misses; got != missesAfterCold {
		t.Fatalf("warm runs executed %d simulations (miss count %d -> %d), want zero",
			got-missesAfterCold, missesAfterCold, got)
	}
}

// TestCachedRunSchedulesWarm mirrors the contract for schedule candidates,
// including the cached Decisions genome mutation search depends on.
func TestCachedRunSchedulesWarm(t *testing.T) {
	st := store.NewMemory(0)
	jobs := []runner.ScheduleJob{
		{Algo: "yang-anderson", N: 4, Sched: machine.PrefixGreedySpec([]int{0, 1, 2, 3, 2, 1}), KeepDecisions: 8},
		{Algo: "peterson", N: 3, Sched: machine.GreedyCostSpec(), KeepDecisions: 4},
		{Algo: "yang-anderson", N: 4, Sched: machine.SoloSpec([]int{0}), KeepDecisions: 8}, // stalls: discard, still cached
	}
	collect := func(eng *runner.CachedEngine) []runner.ScheduleResult {
		var out []runner.ScheduleResult
		if err := eng.RunSchedules(jobs, func(r runner.ScheduleResult) error {
			if r.Err != nil {
				return r.Err
			}
			out = append(out, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := collect(runner.NewCached(runner.New(2), nil))
	cold := collect(runner.NewCached(runner.New(2), st))
	missesAfterCold := st.Stats().Misses
	warm := collect(runner.NewCached(runner.New(4), st))
	if !reflect.DeepEqual(cold, plain) || !reflect.DeepEqual(warm, plain) {
		t.Fatalf("cached schedule results diverge:\nplain %+v\ncold  %+v\nwarm  %+v", plain, cold, warm)
	}
	if got := st.Stats().Misses; got != missesAfterCold {
		t.Fatal("warm schedule run re-simulated cached candidates")
	}
	if warm[2].Canonical {
		t.Fatalf("stalling candidate must cache as non-canonical: %+v", warm[2])
	}
}

// countingBatchBackend is an in-memory BatchBackend + HasBatcher counting
// point versus batched writes, so tests can pin that the engine's write
// path travels batched.
type countingBatchBackend struct {
	mu         sync.Mutex
	m          map[string][]byte
	gets       int   // point Get calls
	puts       int   // point Put calls
	putBatches []int // entry count of each PutBatch call
}

func newCountingBatchBackend() *countingBatchBackend {
	return &countingBatchBackend{m: make(map[string][]byte)}
}

func (b *countingBatchBackend) Get(key string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gets++
	v, ok := b.m[key]
	return v, ok, nil
}

func (b *countingBatchBackend) Put(key string, val []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.puts++
	b.m[key] = val
	return nil
}

func (b *countingBatchBackend) Has(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.m[key]
	return ok
}

func (b *countingBatchBackend) ForEach(fn func(key string, val []byte) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, v := range b.m {
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

func (b *countingBatchBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

func (b *countingBatchBackend) Close() error { return nil }

func (b *countingBatchBackend) GetBatch(keys []string) (map[string][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := b.m[k]; ok {
			out[k] = v
		}
	}
	return out, nil
}

func (b *countingBatchBackend) PutBatch(entries []store.Entry) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.putBatches = append(b.putBatches, len(entries))
	added := 0
	for _, e := range entries {
		if _, ok := b.m[e.Key]; !ok {
			added++
		}
		b.m[e.Key] = e.Val
	}
	return added, nil
}

func (b *countingBatchBackend) HasBatch(keys []string) (map[string]bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		if _, ok := b.m[k]; ok {
			out[k] = true
		}
	}
	return out, nil
}

// TestCachedRunBatchesWritesPerFanOut pins the batched hot path: against a
// batching backend a cold fan-out issues zero point gets — the prefetch's
// answer is final, so a key it did not return is never asked for again —
// and zero point puts: every executed result travels in buffered batches
// flushed at the fan-out barrier, after which the writes are durable (a
// prime pass that exits right after Run has shared everything). Warm runs
// write nothing at all.
func TestCachedRunBatchesWritesPerFanOut(t *testing.T) {
	be := newCountingBatchBackend()
	st := store.New(0, be)
	defer st.Close()
	jobs := testJobs()

	plain := collectRun(t, runner.NewCached(runner.New(2), nil), jobs)
	cold := collectRun(t, runner.NewCached(runner.New(4), st), jobs)
	if !reflect.DeepEqual(cold, plain) {
		t.Fatalf("buffered cold run diverged:\n%+v\nvs\n%+v", cold, plain)
	}
	if be.gets != 0 {
		t.Fatalf("cold fan-out issued %d point gets, want 0 (absent keys must not be re-read)", be.gets)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != int64(len(jobs)) {
		t.Fatalf("cold fan-out counted hits=%d misses=%d, want 0 and %d", s.Hits, s.Misses, len(jobs))
	}
	if be.puts != 0 {
		t.Fatalf("cold fan-out issued %d point puts, want 0 (writes must batch)", be.puts)
	}
	if len(be.putBatches) != 1 || be.putBatches[0] != len(jobs) {
		t.Fatalf("cold fan-out flushed batches %v, want one batch of %d", be.putBatches, len(jobs))
	}
	if be.Len() != len(jobs) {
		t.Fatalf("flush barrier left %d of %d writes undurable", len(jobs)-be.Len(), len(jobs))
	}

	warm := collectRun(t, runner.NewCached(runner.New(4), st), jobs)
	if !reflect.DeepEqual(warm, plain) {
		t.Fatal("warm buffered run diverged")
	}
	if be.puts != 0 || len(be.putBatches) != 1 {
		t.Fatalf("warm run wrote: puts=%d batches=%v", be.puts, be.putBatches)
	}

	// A prime pass over a batching backend batches identically.
	primeBE := newCountingBatchBackend()
	primeSt := store.New(0, primeBE)
	defer primeSt.Close()
	eng := runner.NewCached(runner.New(4), primeSt).WithShard(0, 1)
	if err := eng.Run(jobs, nil); err != nil {
		t.Fatal(err)
	}
	if primeBE.puts != 0 || len(primeBE.putBatches) != 1 || primeBE.Len() != len(jobs) {
		t.Fatalf("prime pass: puts=%d batches=%v len=%d, want 0, one batch, %d",
			primeBE.puts, primeBE.putBatches, primeBE.Len(), len(jobs))
	}

	// CachedMap batches through the same sink.
	mapBE := newCountingBatchBackend()
	mapSt := store.New(0, mapBE)
	defer mapSt.Close()
	key := func(i int) string { return store.Key(runner.CacheVersion, fmt.Sprintf("wb-unit-%d", i)) }
	if err := runner.CachedMap(runner.NewCached(runner.New(2), mapSt), 9, key,
		func(i int) (int, error) { return i * i, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if mapBE.puts != 0 || len(mapBE.putBatches) != 1 || mapBE.Len() != 9 {
		t.Fatalf("CachedMap: puts=%d batches=%v len=%d, want 0, one batch, 9",
			mapBE.puts, mapBE.putBatches, mapBE.Len())
	}
}

// TestCachedMapShardsPartitionKeySpace checks the prime-pass semantics:
// shards execute disjoint, collectively exhaustive subsets of the keyed
// units, folds never run, and the merged stores replay the exact fold.
func TestCachedMapShardsPartitionKeySpace(t *testing.T) {
	const n = 40
	key := func(i int) string { return store.Key(runner.CacheVersion, fmt.Sprintf("unit-%d", i)) }
	fn := func(i int) (int, error) { return i * i, nil }

	var base []int
	if err := runner.CachedMap(runner.NewCached(runner.New(2), nil), n, key, fn, func(i, v int) error {
		base = append(base, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const m = 3
	dirs := make([]string, m)
	executedTotal := 0
	for s := 0; s < m; s++ {
		dirs[s] = t.TempDir()
		st, err := store.Open(dirs[s], 0)
		if err != nil {
			t.Fatal(err)
		}
		var executed atomic.Int64 // prime passes execute on the worker pool
		eng := runner.NewCached(runner.New(2), st).WithShard(s, m)
		if !eng.Priming() {
			t.Fatal("WithShard engine must report Priming")
		}
		err = runner.CachedMap(eng, n, key, func(i int) (int, error) {
			executed.Add(1)
			return fn(i)
		}, func(i, v int) error {
			t.Error("prime pass must not fold")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(executed.Load()); got != st.Len() {
			t.Fatalf("shard %d executed %d units but stored %d", s, got, st.Len())
		}
		executedTotal += int(executed.Load())
		st.Close()
	}
	if executedTotal != n {
		t.Fatalf("shards executed %d units in total, want exactly %d (disjoint and exhaustive)", executedTotal, n)
	}

	merged, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if _, err := merged.Merge(dirs...); err != nil {
		t.Fatal(err)
	}
	var replay []int
	err = runner.CachedMap(runner.NewCached(runner.New(4), merged), n, key, func(i int) (int, error) {
		return 0, fmt.Errorf("unit %d missed the merged store", i)
	}, func(i, v int) error {
		replay = append(replay, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, base) {
		t.Fatalf("merged replay %v differs from direct run %v", replay, base)
	}
}

// TestCachedMapKeylessUnitsAlwaysExecute pins the "" contract: uncacheable
// units run in normal mode and are skipped by prime passes.
func TestCachedMapKeylessUnitsAlwaysExecute(t *testing.T) {
	st := store.NewMemory(0)
	key := func(i int) string { return "" }
	for round := 0; round < 2; round++ {
		executed := 0
		err := runner.CachedMap(runner.NewCached(runner.New(1), st), 5, key, func(i int) (int, error) {
			executed++
			return i, nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if executed != 5 {
			t.Fatalf("round %d: executed %d keyless units, want 5", round, executed)
		}
	}
	err := runner.CachedMap(runner.NewCached(runner.New(1), st).WithShard(0, 2), 5, key, func(i int) (int, error) {
		t.Error("prime pass executed a keyless unit")
		return 0, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCachedMapDuplicateKeysHitWithinFanOut pins the other half of the
// no-re-read rule: a key the prefetch found absent is still looked up in
// the LRU tier, so a duplicate unit later in the same sequential fan-out
// is served from the copy the first executor wrote, not executed twice.
// An engine given no store holds the same rule over the memory-only store
// NewCached mounts for it.
func TestCachedMapDuplicateKeysHitWithinFanOut(t *testing.T) {
	be := newCountingBatchBackend()
	st := store.New(0, be)
	defer st.Close()
	key := func(i int) string { return store.Key(runner.CacheVersion, fmt.Sprintf("dup-%d", i%3)) }
	for _, tc := range []struct {
		name string
		eng  *runner.CachedEngine
	}{
		{"batching-backend", runner.NewCached(runner.New(1), st)},
		{"no-store-given", runner.NewCached(runner.New(1), nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			executed := 0
			var folded []int
			err := runner.CachedMap(tc.eng, 9, key, func(i int) (int, error) {
				executed++
				return i % 3, nil
			}, func(i, v int) error {
				folded = append(folded, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if executed != 3 {
				t.Fatalf("executed %d units for 3 distinct keys, want 3", executed)
			}
			if want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}; !reflect.DeepEqual(folded, want) {
				t.Fatalf("folded %v, want %v", folded, want)
			}
		})
	}
	if s := st.Stats(); s.Hits != 6 || s.Misses != 3 || be.gets != 0 {
		t.Fatalf("hits=%d misses=%d point gets=%d, want 6, 3, 0", s.Hits, s.Misses, be.gets)
	}
}

// TestFailuresNeverCached pins the error contract of every cached path: a
// failing job and a hard-failing schedule candidate reach the fold (or the
// caller) with Err set, leave no entry behind, and execute again — a fresh
// miss — on the next run.
func TestFailuresNeverCached(t *testing.T) {
	badJob := runner.Job{Algo: "no-such-algo", N: 3, Sched: machine.RoundRobinSpec()}
	badSched := runner.ScheduleJob{Algo: "yang-anderson", N: 3, Sched: machine.Spec{Kind: "fifo"}}
	paths := []struct {
		name string
		run  func(eng *runner.CachedEngine) error
	}{
		{"Run", func(eng *runner.CachedEngine) error {
			var got error
			err := eng.Run([]runner.Job{badJob, badJob}, func(r runner.Result) error {
				if got == nil {
					got = r.Err
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("fold saw the error in-band but Run returned %v", err)
			}
			return got
		}},
		{"RunSchedules", func(eng *runner.CachedEngine) error {
			var got error
			err := eng.RunSchedules([]runner.ScheduleJob{badSched, badSched}, func(r runner.ScheduleResult) error {
				if got == nil {
					got = r.Err
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("fold saw the error in-band but RunSchedules returned %v", err)
			}
			return got
		}},
		{"RunOne", func(eng *runner.CachedEngine) error {
			_, err := eng.RunOne(badJob)
			return err
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			be := newCountingBatchBackend()
			st := store.New(0, be)
			defer st.Close()
			eng := runner.NewCached(runner.New(2), st)
			var misses int64
			for round := 0; round < 2; round++ {
				if err := p.run(eng); err == nil {
					t.Fatalf("round %d: failure did not reach the fold", round)
				}
				if n := st.Len(); n != 0 || be.Len() != 0 {
					t.Fatalf("round %d: failure left %d entries (%d durable)", round, n, be.Len())
				}
				s := st.Stats()
				if s.Hits != 0 || s.Misses <= misses {
					t.Fatalf("round %d: hits=%d misses=%d (was %d), want a fresh miss and no hit", round, s.Hits, s.Misses, misses)
				}
				misses = s.Misses
			}
		})
	}
}

// TestStoredPayloadBytesPinned pins the stored form of a job and a schedule
// candidate. These bytes are what every warm run and every fleet member
// reads back; changing them is a change of the stored format, which needs
// a CacheVersion bump and new literals here in the same tree.
func TestStoredPayloadBytesPinned(t *testing.T) {
	if runner.CacheVersion != "fanl06-sim-v3" {
		t.Fatalf("CacheVersion is %q: re-pin the payload literals below for it", runner.CacheVersion)
	}
	st := store.NewMemory(0)
	eng := runner.NewCached(runner.New(1), st)
	j := runner.Job{Algo: "yang-anderson", N: 2, Sched: machine.RoundRobinSpec()}
	if _, err := eng.RunOne(j); err != nil {
		t.Fatal(err)
	}
	sj := runner.ScheduleJob{Algo: "peterson", N: 2, Sched: machine.RoundRobinSpec(), KeepDecisions: 4}
	if err := eng.RunSchedules([]runner.ScheduleJob{sj}, func(r runner.ScheduleResult) error { return r.Err }); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ key, want string }{
		{j.CacheKey(), `{"report":{"N":2,"Steps":30,"SharedAccesses":22,"CritSteps":8,"SC":20,"CCRMR":15,"DSMRMR":16}}`},
		{sj.CacheKey(), `{"report":{"N":2,"Steps":21,"SharedAccesses":13,"CritSteps":8,"SC":13,"CCRMR":10,"DSMRMR":13},"canonical":true,"decisions":[0,1,0,1]}`},
	} {
		got, ok := st.Peek(c.key)
		if !ok {
			t.Fatalf("nothing stored under %s", c.key)
		}
		if string(got) != c.want {
			t.Errorf("stored payload changed without a CacheVersion bump:\ngot  %s\nwant %s", got, c.want)
		}
	}
}
