package mutex_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/mutex"
	_ "repro/internal/rmw" // registers tas and mcs, so every name resolves
)

// TestConcurrentBuildsMatchSequential builds every registered algorithm at
// n = 2…8 from several goroutines at once, all drawing on the Builder's
// shared buffer pool. Each program must deep-equal a sequentially built
// one and own its instructions: cap equal to len, and a backing array no
// other program shares.
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
	arrays := map[uintptr]string{} // backing array → the program that owns it
	for g := range got {
		for i, f := range got[g] {
			c := cells[i]
			for p := 0; p < f.N(); p++ {
				prog, ref := f.Program(p), want[c].Program(p)
				if !reflect.DeepEqual(prog, ref) {
					t.Fatalf("%s n=%d process %d: concurrent build differs from sequential\n%s\nwant\n%s", c.name, c.n, p, prog.Disassemble(), ref.Disassemble())
				}
				if cap(prog.Instrs) != len(prog.Instrs) {
					t.Errorf("%s n=%d process %d: cap %d, len %d", c.name, c.n, p, cap(prog.Instrs), len(prog.Instrs))
				}
				at := reflect.ValueOf(prog.Instrs).Pointer()
				if other, dup := arrays[at]; dup {
					t.Fatalf("%s n=%d process %d shares its instructions with %s", c.name, c.n, p, other)
				}
				arrays[at] = prog.Name
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
			if got := len(f.Program(i).Instrs); got != want {
				t.Errorf("n=%d process %d: %d instructions, want 6 + (n−1)(5n−1) = %d", n, i, got, want)
			}
		}
	}
}
