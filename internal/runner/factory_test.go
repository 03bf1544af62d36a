package runner_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mutex"
	"repro/internal/runner"
	"repro/internal/store"
)

// countedAlgo is bakery under a test-only name, registered with a wrapper
// that counts how many factories each n builds.
const countedAlgo = "counted-bakery"

var builds struct {
	mu   sync.Mutex
	byN  map[int]int
	seen int
}

func init() {
	mutex.Register(countedAlgo, func(n int) (*mutex.Factory, error) {
		builds.mu.Lock()
		builds.byN[n]++
		builds.seen++
		builds.mu.Unlock()
		return mutex.Bakery(n)
	})
	builds.byN = map[int]int{}
}

// countBuilds runs fn and returns how many counted factories it built,
// per n and in total.
func countBuilds(fn func()) (map[int]int, int) {
	builds.mu.Lock()
	builds.byN, builds.seen = map[int]int{}, 0
	builds.mu.Unlock()
	fn()
	builds.mu.Lock()
	defer builds.mu.Unlock()
	return builds.byN, builds.seen
}

// TestFanOutBuildsEachCellOnce checks that a fan-out resolves each
// (algo, n) once, however many of its units name it, and that units the
// store serves build nothing.
func TestFanOutBuildsEachCellOnce(t *testing.T) {
	ns := []int{2, 3, 4, 5}
	var jobs []runner.Job // interleaved, so every cell's units spread across the fan-out
	for seed := int64(0); seed < 3; seed++ {
		for _, n := range ns {
			jobs = append(jobs, runner.Job{Algo: countedAlgo, N: n, Sched: machine.RandomSpec(seed), Seed: seed})
		}
	}
	cands := make([]runner.ScheduleJob, 12)
	for i := range cands {
		cands[i] = runner.ScheduleJob{Algo: countedAlgo, N: 4, Sched: machine.RandomSpec(int64(i)), KeepDecisions: 4}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			byN, total := countBuilds(func() {
				eng := runner.NewCached(runner.New(workers), nil)
				if err := eng.RunSchedules(cands, func(r runner.ScheduleResult) error { return r.Err }); err != nil {
					t.Fatal(err)
				}
			})
			if total != 1 || byN[4] != 1 {
				t.Errorf("RunSchedules over %d candidates of one cell built %d factories (%v), want 1", len(cands), total, byN)
			}

			st := store.New(0, nil)
			defer st.Close()
			eng := runner.NewCached(runner.New(workers), st)
			var cold, warm []runner.Result
			byN, total = countBuilds(func() { cold = collectRun(t, eng, jobs) })
			if total != len(ns) {
				t.Errorf("Run over %d jobs of %d cells built %d factories, want %d", len(jobs), len(ns), total, len(ns))
			}
			for _, n := range ns {
				if byN[n] != 1 {
					t.Errorf("cell n=%d built %d times, want 1", n, byN[n])
				}
			}
			if _, total = countBuilds(func() { warm = collectRun(t, eng, jobs) }); total != 0 {
				t.Errorf("warm Run built %d factories, want 0", total)
			}
			if !reflect.DeepEqual(cold, warm) {
				t.Error("warm results differ from cold")
			}
		})
	}
}

// TestExecuteUnknownAlgo checks that a factory that fails to resolve
// reaches every unit naming it in-band, on its Result, while the units
// around it run as usual.
func TestExecuteUnknownAlgo(t *testing.T) {
	var jobs []runner.Job
	var cands []runner.ScheduleJob
	for i := 0; i < 6; i++ {
		algo := "no-such-lock"
		if i%3 == 2 {
			algo = "bakery"
		}
		jobs = append(jobs, runner.Job{Algo: algo, N: 3, Sched: machine.RandomSpec(int64(i))})
		cands = append(cands, runner.ScheduleJob{Algo: algo, N: 3, Sched: machine.RandomSpec(int64(i))})
	}
	check := func(t *testing.T, i int, err error) {
		if bad := jobs[i].Algo != "bakery"; bad != (err != nil) {
			t.Errorf("unit %d (%s): err = %v", i, jobs[i].Algo, err)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := runner.NewCached(runner.New(workers), nil)
			if err := eng.Run(jobs, func(r runner.Result) error { check(t, r.Index, r.Err); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := eng.RunSchedules(cands, func(r runner.ScheduleResult) error { check(t, r.Index, r.Err); return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkNewFactory measures building one factory, the cost a fan-out
// pays once per (algo, n) it executes: filter's Θ(n³) instructions at
// n = 32, and two Θ(n²) programs at n = 16.
func BenchmarkNewFactory(b *testing.B) {
	for _, c := range []struct {
		algo string
		n    int
	}{{"filter", 32}, {"bakery", 16}, {"yang-anderson", 16}} {
		b.Run(fmt.Sprintf("%s/%d", c.algo, c.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner.NewFactory(c.algo, c.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
