package mutex_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mutex"
	_ "repro/internal/rmw" // registers tas and mcs, so every name resolves
)

// TestConcurrentBuildsMatchSequential builds every registered algorithm at
// n = 2…8 from several goroutines at once, all drawing on the Builder's
// shared buffer pool. Each program must deep-equal a sequentially built
// one and own every array it holds (its compiled ops, expression nodes,
// label table and variable names): cap equal to len, and a backing array
// no other program shares.
func TestConcurrentBuildsMatchSequential(t *testing.T) {
	type cell struct {
		name string
		n    int
	}
	var cells []cell
	want := map[cell]*mutex.Factory{}
	for _, name := range mutex.Names() {
		for n := 2; n <= 8; n++ {
			f, err := mutex.New(name, n)
			if err != nil {
				continue // dekker takes n = 2 only
			}
			if f.N() != n {
				t.Fatalf("%s at n=%d built %d processes", name, n, f.N())
			}
			cells = append(cells, cell{name, n})
			want[cell{name, n}] = f
		}
	}
	const goroutines = 4
	got := make([][]*mutex.Factory, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]*mutex.Factory, len(cells))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cells {
				i := (k + 7*g) % len(cells) // each goroutine starts elsewhere
				f, err := mutex.New(cells[i].name, cells[i].n)
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = f
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	arrays := map[uintptr]string{} // backing array → the program and field that own it
	for g := range got {
		for i, f := range got[g] {
			c := cells[i]
			for p := 0; p < f.N(); p++ {
				prog, ref := f.Program(p), want[c].Program(p)
				if !reflect.DeepEqual(prog, ref) {
					t.Fatalf("%s n=%d process %d: concurrent build differs from sequential\n%s\nwant\n%s", c.name, c.n, p, prog.Disassemble(), ref.Disassemble())
				}
				owned := 0
				v := reflect.ValueOf(prog).Elem()
				for k := 0; k < v.NumField(); k++ {
					field := v.Type().Field(k).Name
					s := v.Field(k)
					if s.Kind() != reflect.Slice || s.Cap() == 0 {
						continue
					}
					if s.Cap() != s.Len() {
						t.Errorf("%s n=%d process %d: %s has cap %d, len %d", c.name, c.n, p, field, s.Cap(), s.Len())
					}
					at := s.Pointer()
					if other, dup := arrays[at]; dup {
						t.Fatalf("%s n=%d process %d shares its %s with %s", c.name, c.n, p, field, other)
					}
					arrays[at] = prog.Name + " " + field
					if field == "ops" {
						owned++
					}
				}
				if owned != 1 {
					t.Fatalf("%s n=%d process %d: no ops array among the program's fields", c.name, c.n, p)
				}
			}
		}
	}
}

// TestFilterProgramSize pins the filter lock's program length per process:
// try, then n−1 levels of two writes, five instructions per rival and two
// resets, then enter, exit, the releasing write, rem and halt — 6 +
// (n−1)(5n−1). An n-process factory therefore holds Θ(n³) instructions,
// which is what bounds the largest filter a process can build.
func TestFilterProgramSize(t *testing.T) {
	for n := 2; n <= 8; n++ {
		f, err := mutex.Filter(n)
		if err != nil {
			t.Fatal(err)
		}
		want := 6 + (n-1)*(5*n-1)
		for i := 0; i < n; i++ {
			if got := f.Program(i).Len(); got != want {
				t.Errorf("n=%d process %d: %d instructions, want 6 + (n−1)(5n−1) = %d", n, i, got, want)
			}
		}
	}
}

// TestFilterFactoryLiveBytes bounds what a built filter factory keeps
// live: at n = 32 (157,920 instructions) at most 64 bytes per
// instruction, measured as the live heap after a collection on each side
// of the build. Compiled programs hold their instructions and expression
// nodes in pointer-free arrays; the tree-form instructions they replaced
// held 129 bytes each.
func TestFilterFactoryLiveBytes(t *testing.T) {
	const n, perInstr = 32, 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := mutex.New(mutex.NameFilter, n)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	instrs := 0
	for i := 0; i < f.N(); i++ {
		instrs += f.Program(i).Len()
	}
	runtime.KeepAlive(f)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("filter n=%d: %d instructions, %d live bytes, %.1f per instruction", n, instrs, live, float64(live)/float64(instrs))
	if live > int64(perInstr*instrs) {
		t.Errorf("filter n=%d keeps %d bytes live for %d instructions (%.1f each), want at most %d each", n, live, instrs, float64(live)/float64(instrs), perInstr)
	}
}
