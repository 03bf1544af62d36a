package perm_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

func TestFactorial(t *testing.T) {
	cases := map[int]uint64{0: 1, 1: 1, 2: 2, 5: 120, 10: 3628800, 20: 2432902008176640000}
	for n, want := range cases {
		if got := perm.Factorial(n); got != want {
			t.Errorf("Factorial(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFactorialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Factorial(21) should panic (overflows uint64)")
		}
	}()
	perm.Factorial(21)
}

func TestLog2Factorial(t *testing.T) {
	for _, n := range []int{2, 5, 10, 100} {
		got := perm.Log2Factorial(n)
		if n <= 20 {
			want := math.Log2(float64(perm.Factorial(n)))
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("Log2Factorial(%d) = %v, want %v", n, got, want)
			}
		}
		// Stirling sandwich: n lg n - n lg e ≤ lg n! ≤ n lg n.
		upper := float64(n) * math.Log2(float64(n))
		lower := upper - float64(n)*math.Log2(math.E)
		if got > upper+1e-9 || got < lower-1e-9 {
			t.Errorf("Log2Factorial(%d)=%v outside Stirling bounds [%v, %v]", n, got, lower, upper)
		}
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	for n := 0; n <= 6; n++ {
		want := uint64(0)
		perm.ForEach(n, func(p []int) bool {
			if got := perm.Rank(p); got != want {
				t.Fatalf("n=%d: Rank(%v) = %d, want %d (lexicographic enumeration order)", n, p, got, want)
			}
			back := perm.Unrank(n, want)
			for i := range p {
				if back[i] != p[i] {
					t.Fatalf("n=%d rank=%d: Unrank = %v, want %v", n, want, back, p)
				}
			}
			want++
			return true
		})
		if n > 0 && want != perm.Factorial(n) {
			t.Fatalf("n=%d: enumerated %d permutations, want %d", n, want, perm.Factorial(n))
		}
	}
}

func TestUnrankPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unrank(3, 6) should panic")
		}
	}()
	perm.Unrank(3, 6)
}

func TestForEachEarlyStop(t *testing.T) {
	count := 0
	perm.ForEach(5, func([]int) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop after %d, want 7", count)
	}
}

func TestRandomIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	err := quick.Check(func(seed int64) bool {
		n := 1 + int(seed%12+12)%12
		return perm.IsPermutation(perm.Random(n, rng))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsPermutation(t *testing.T) {
	cases := []struct {
		p    []int
		want bool
	}{
		{[]int{}, true},
		{[]int{0}, true},
		{[]int{1, 0, 2}, true},
		{[]int{1, 1, 2}, false},
		{[]int{0, 3}, false},
		{[]int{-1, 0}, false},
	}
	for _, c := range cases {
		if got := perm.IsPermutation(c.p); got != c.want {
			t.Errorf("IsPermutation(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSampleExhaustsSmallSn(t *testing.T) {
	got := perm.Sample(3, 100, 1)
	if len(got) != 6 {
		t.Fatalf("Sample(3, 100) returned %d perms, want all 6", len(got))
	}
	seen := map[uint64]bool{}
	for _, p := range got {
		seen[perm.Rank(p)] = true
	}
	if len(seen) != 6 {
		t.Fatalf("Sample(3, 100) returned duplicates: %v", got)
	}
}

func TestSampleSeededDeterministic(t *testing.T) {
	a := perm.Sample(30, 5, 42)
	b := perm.Sample(30, 5, 42)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different samples")
			}
		}
		if !perm.IsPermutation(a[i]) {
			t.Fatalf("sample %v is not a permutation", a[i])
		}
	}
}

func TestNLogN(t *testing.T) {
	if got := perm.NLogN(1); got != 0 {
		t.Errorf("NLogN(1) = %v, want 0", got)
	}
	if got := perm.NLogN(8); math.Abs(got-24) > 1e-9 {
		t.Errorf("NLogN(8) = %v, want 24", got)
	}
}

func TestIdentity(t *testing.T) {
	id := perm.Identity(4)
	for i, v := range id {
		if v != i {
			t.Fatalf("Identity(4) = %v", id)
		}
	}
}
