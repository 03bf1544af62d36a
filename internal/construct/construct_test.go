package construct_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/construct"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
	"repro/internal/verify"
)

func mustAlgo(t testing.TB, name string, n int) *mutex.Factory {
	t.Helper()
	f, err := mutex.New(name, n)
	if err != nil {
		t.Fatalf("mutex.New(%s, %d): %v", name, n, err)
	}
	return f
}

// TestTheorem55EntryOrder: in every linearization of the constructed
// (M_n, ≼_n), processes enter their critical sections in exactly the order
// π — exhaustively over S_n for small n, for all register algorithms.
func TestTheorem55EntryOrder(t *testing.T) {
	algos := []string{mutex.NameYangAnderson, mutex.NamePeterson, mutex.NameBakery}
	for _, name := range algos {
		for n := 1; n <= 4; n++ {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				f := mustAlgo(t, name, n)
				perm.ForEach(n, func(pi []int) bool {
					res, err := construct.Construct(f, pi)
					if err != nil {
						t.Fatalf("Construct(%v): %v", pi, err)
					}
					alpha, err := res.Linearize()
					if err != nil {
						t.Fatalf("Linearize(%v): %v", pi, err)
					}
					if err := verify.MutexExecution(f, alpha); err != nil {
						t.Fatalf("pi=%v: %v\n%s", pi, err, alpha)
					}
					if err := verify.EntryOrder(alpha, pi); err != nil {
						t.Fatalf("pi=%v: %v", pi, err)
					}
					return true
				})
			})
		}
	}
}

// TestTheorem55RandomLinearizations: the entry-order guarantee holds for
// random linearizations too, not just the canonical one.
func TestTheorem55RandomLinearizations(t *testing.T) {
	f := mustAlgo(t, mutex.NameYangAnderson, 5)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		pi := perm.Random(5, rng)
		res, err := construct.Construct(f, pi)
		if err != nil {
			t.Fatalf("Construct(%v): %v", pi, err)
		}
		for k := 0; k < 5; k++ {
			alpha, err := res.Set.Lin(rng)
			if err != nil {
				t.Fatalf("Lin: %v", err)
			}
			if err := verify.MutexExecution(f, alpha); err != nil {
				t.Fatalf("pi=%v trial=%d: %v", pi, k, err)
			}
			if err := verify.EntryOrder(alpha, pi); err != nil {
				t.Fatalf("pi=%v trial=%d: %v", pi, k, err)
			}
		}
	}
}

// TestLemma61LinearizationCostInvariant: all linearizations of (M, ≼) have
// the same state change cost.
func TestLemma61LinearizationCostInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{mutex.NameYangAnderson, mutex.NameBakery} {
		for _, n := range []int{3, 5} {
			f := mustAlgo(t, name, n)
			pi := perm.Random(n, rng)
			res, err := construct.Construct(f, pi)
			if err != nil {
				t.Fatalf("Construct: %v", err)
			}
			want, err := res.Cost()
			if err != nil {
				t.Fatalf("Cost: %v", err)
			}
			for k := 0; k < 8; k++ {
				alpha, err := res.Set.Lin(rng)
				if err != nil {
					t.Fatalf("Lin: %v", err)
				}
				rep, err := cost.Measure(f, alpha)
				if err != nil {
					t.Fatalf("Measure: %v", err)
				}
				if got := rep.SC; got != want {
					t.Fatalf("%s n=%d pi=%v: linearization %d has SC=%d, canonical has %d (Lemma 6.1 violated)", name, n, pi, k, got, want)
				}
			}
		}
	}
}

// TestLemma54Projections: a process cannot distinguish linearizations —
// its projection is identical in every linearization of the final set.
func TestLemma54Projections(t *testing.T) {
	f := mustAlgo(t, mutex.NameYangAnderson, 4)
	rng := rand.New(rand.NewSource(3))
	pi := []int{2, 0, 3, 1}
	res, err := construct.Construct(f, pi)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	canonical, err := res.Linearize()
	if err != nil {
		t.Fatalf("Linearize: %v", err)
	}
	canonExec, _, err := machine.ReplayExecution(f, canonical)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for k := 0; k < 6; k++ {
		alpha, err := res.Set.Lin(rng)
		if err != nil {
			t.Fatalf("Lin: %v", err)
		}
		filled, _, err := machine.ReplayExecution(f, alpha)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		for i := 0; i < 4; i++ {
			if !canonExec.Project(i).Equal(filled.Project(i)) {
				t.Fatalf("projection of process %d differs between linearizations (Lemma 5.4 violated)", i)
			}
		}
	}
}

// TestConstructRejectsRMW: the register-only model rejects RMW algorithms.
func TestConstructRejectsRMW(t *testing.T) {
	// Build a tiny RMW factory inline via the rmw package in the
	// experiments; here we simulate with the interface check on a
	// register algorithm — covered in the core package tests. Just check
	// the permutation validation path.
	f := mustAlgo(t, mutex.NameYangAnderson, 3)
	if _, err := construct.Construct(f, []int{0, 1}); err == nil {
		t.Fatal("want error for wrong-length permutation")
	}
	if _, err := construct.Construct(f, []int{0, 1, 1}); err == nil {
		t.Fatal("want error for non-permutation")
	}
}

// TestConstructRejectsOutOfRangeRegister: a pending read or write naming
// a register outside the factory's file ends the construction with an
// error naming the register, as the simulator's step does, not a panic.
func TestConstructRejectsOutOfRangeRegister(t *testing.T) {
	for _, kind := range []model.Kind{model.KindRead, model.KindWrite} {
		layout := mutex.NewLayout()
		layout.Reg("r", 0, -1)
		b := program.NewBuilder("stray")
		b.Try()
		if kind == model.KindRead {
			b.Read(5, b.Var("x"))
		} else {
			b.Write(5, program.Const(1))
		}
		b.Enter()
		b.Exit()
		b.Rem()
		f := mutex.NewFactory("stray", layout, []*program.Program{b.MustBuild()})
		_, err := construct.Construct(f, []int{0})
		if err == nil || !strings.Contains(err.Error(), "register 5 out of range [0,1)") {
			t.Fatalf("%v of r5 with one register: got error %v, want one naming register 5", kind, err)
		}
	}
}

// TestConstructionGrowth: the construction's cost grows like the subject
// algorithm's canonical cost — sanity on sizes for a sweep of n.
func TestConstructionGrowth(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		f := mustAlgo(t, mutex.NameYangAnderson, n)
		res, err := construct.Construct(f, perm.Identity(n))
		if err != nil {
			t.Fatalf("Construct(n=%d): %v", n, err)
		}
		c, err := res.Cost()
		if err != nil {
			t.Fatalf("Cost: %v", err)
		}
		t.Logf("n=%d metasteps=%d steps=%d SC=%d SC/(n log n)=%.2f",
			n, res.Set.Len(), res.Set.TotalSteps(), c, float64(c)/perm.NLogN(n))
		if c < n {
			t.Errorf("n=%d: SC=%d is implausibly small", n, c)
		}
	}
}
