package runner

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/store"
)

// TestFactoriesDropCellAfterLastUnit pins the resolver's lifetime rule: no
// state before a unit executes, one shared factory per cell, and a cell
// dropped as soon as its last unit takes the factory or is skipped. A unit
// skipped before the first execution is not counted off, so its cell
// stays until the fan-out ends.
func TestFactoriesDropCellAfterLastUnit(t *testing.T) {
	var jobs []Job
	for _, n := range []int{2, 3, 2, 3, 3} {
		jobs = append(jobs, Job{Algo: "bakery", N: n})
	}
	fs := &factories[Job]{jobs: jobs}
	resolving := func(c cell) (ok bool) {
		fs.mu.Lock()
		defer fs.mu.Unlock()
		_, ok = fs.cells[c]
		return ok
	}
	fs.skipped(0) // a hit before any execution
	fs.mu.Lock()
	allocated := fs.cells != nil
	fs.mu.Unlock()
	if allocated {
		t.Fatal("a unit served before any execution allocated resolver state")
	}
	f1, err := fs.take(1)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := fs.take(3)
	if err != nil {
		t.Fatal(err)
	}
	if f3 != f1 {
		t.Fatal("two units of one cell got different factories")
	}
	if !resolving(cell{"bakery", 3}) {
		t.Fatal("n=3 dropped while unit 4 still names it")
	}
	fs.skipped(4) // the last n=3 unit, served from the store
	if resolving(cell{"bakery", 3}) {
		t.Error("n=3 kept after its last unit")
	}
	if _, err := fs.take(2); err != nil {
		t.Fatal(err)
	}
	if !resolving(cell{"bakery", 2}) {
		t.Error("n=2 dropped though unit 0 was skipped uncounted before the first execution")
	}
}

// skipLog records the units a fan-out settles without executing them.
type skipLog struct {
	mu sync.Mutex
	//repro:guardedby mu
	units map[int]bool
}

func (l *skipLog) skipped(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.units[i] = true
}

// TestCachedMapTellsSkipperAboutUnexecutedUnits checks the hook the
// resolver counts units off with: every unit is either executed or
// reported skipped, never both, in a normal pass against a half-warm store
// and in a prime pass.
func TestCachedMapTellsSkipperAboutUnexecutedUnits(t *testing.T) {
	const n = 24
	key := func(i int) string { return fmt.Sprintf("unit-%d", i) }
	for _, workers := range []int{1, 4} {
		for _, prime := range []bool{false, true} {
			st := store.New(0, nil)
			defer st.Close()
			for i := 0; i < n; i += 3 {
				store.PutJSON(st, key(i), i)
			}
			eng := NewCached(New(workers), st)
			if prime {
				eng = eng.WithShard(0, 2)
			}
			var mu sync.Mutex
			executed := map[int]bool{}
			skips := &skipLog{units: map[int]bool{}}
			err := cachedMap(eng, n, key, func(i int, _ string) (int, error) {
				mu.Lock()
				defer mu.Unlock()
				executed[i] = true
				return i, nil
			}, skips, func(int, int, error) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if executed[i] == skips.units[i] {
					t.Errorf("workers=%d priming=%v unit %d: executed %v, skipped %v", workers, prime, i, executed[i], skips.units[i])
				}
			}
			if len(skips.units) == 0 || len(executed) == 0 {
				t.Errorf("workers=%d priming=%v: %d executed, %d skipped", workers, prime, len(executed), len(skips.units))
			}
		}
	}
}
