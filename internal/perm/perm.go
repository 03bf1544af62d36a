// Package perm provides the permutation machinery of the counting argument
// in Section 7.3: enumeration and seeded sampling of S_n, Lehmer-code
// ranking/unranking, and the information-theoretic quantity log₂(n!) that
// any encoding distinguishing all of S_n must reach.
package perm

import (
	"fmt"
	"math"
	"math/rand"
)

// MaxExact is the largest n for which n! fits in a uint64 (20! < 2^64 < 21!).
const MaxExact = 20

// Factorial returns n! for 0 <= n <= MaxExact; it panics beyond that
// (callers use Log2Factorial for large n).
func Factorial(n int) uint64 {
	if n < 0 || n > MaxExact {
		panic(fmt.Sprintf("perm: Factorial(%d) out of exact range [0,%d]", n, MaxExact))
	}
	f := uint64(1)
	for i := 2; i <= n; i++ {
		f *= uint64(i)
	}
	return f
}

// Log2Factorial returns log₂(n!) = Σ_{k=2}^{n} log₂ k, the minimum number of
// bits needed to uniquely identify an element of S_n. By Stirling's formula
// this is n log₂ n − Θ(n): the Ω(n log n) of the paper's title.
func Log2Factorial(n int) float64 {
	s := 0.0
	for k := 2; k <= n; k++ {
		s += math.Log2(float64(k))
	}
	return s
}

// NLogN returns n·log₂(n) (0 for n < 2), the normalization used when
// reporting cost ratios.
func NLogN(n int) float64 {
	if n < 2 {
		return 0
	}
	return float64(n) * math.Log2(float64(n))
}

// Identity returns the identity permutation of size n.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsPermutation reports whether p is a permutation of 0..len(p)-1.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Rank returns the lexicographic rank of the permutation (its Lehmer code
// evaluated in the factorial number system), in [0, n!). n must be at most
// MaxExact.
func Rank(p []int) uint64 {
	n := len(p)
	if n > MaxExact {
		panic(fmt.Sprintf("perm: Rank: n=%d exceeds exact range %d", n, MaxExact))
	}
	var rank uint64
	for i := 0; i < n; i++ {
		smaller := 0
		for j := i + 1; j < n; j++ {
			if p[j] < p[i] {
				smaller++
			}
		}
		rank += uint64(smaller) * Factorial(n-1-i)
	}
	return rank
}

// Unrank returns the permutation of size n with the given lexicographic
// rank; the inverse of Rank.
func Unrank(n int, rank uint64) []int {
	if n > MaxExact {
		panic(fmt.Sprintf("perm: Unrank: n=%d exceeds exact range %d", n, MaxExact))
	}
	if n > 0 && rank >= Factorial(n) {
		panic(fmt.Sprintf("perm: Unrank: rank %d out of range for n=%d", rank, n))
	}
	avail := Identity(n)
	p := make([]int, 0, n)
	for i := 0; i < n; i++ {
		f := Factorial(n - 1 - i)
		k := rank / f
		rank %= f
		p = append(p, avail[k])
		avail = append(avail[:k], avail[k+1:]...)
	}
	return p
}

// ForEach calls fn for every permutation of size n in lexicographic order,
// stopping early if fn returns false. The slice passed to fn is reused;
// copy it if it must be retained.
func ForEach(n int, fn func(p []int) bool) {
	p := Identity(n)
	for {
		if !fn(p) {
			return
		}
		// Next permutation in lexicographic order (classic pivot algorithm).
		i := n - 2
		for i >= 0 && p[i] >= p[i+1] {
			i--
		}
		if i < 0 {
			return
		}
		j := n - 1
		for p[j] <= p[i] {
			j--
		}
		p[i], p[j] = p[j], p[i]
		for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
			p[l], p[r] = p[r], p[l]
		}
	}
}

// Random returns a uniformly random permutation of size n from the rng.
func Random(n int, rng *rand.Rand) []int {
	return rng.Perm(n)
}

// Sample returns k permutations of size n drawn from a seeded source. When
// n is small enough that S_n has at most k elements, it returns all of S_n
// instead (deduplicated, deterministic).
func Sample(n, k int, seed int64) [][]int {
	if n <= MaxExact && Factorial(n) <= uint64(k) {
		var all [][]int
		ForEach(n, func(p []int) bool {
			cp := make([]int, n)
			copy(cp, p)
			all = append(all, cp)
			return true
		})
		return all
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, k)
	for i := range out {
		out[i] = rng.Perm(n)
	}
	return out
}
