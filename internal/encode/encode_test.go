package encode_test

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/construct"
	"repro/internal/encode"
	"repro/internal/metastep"
	"repro/internal/mutex"
	"repro/internal/perm"
)

// --- bit I/O ---

// gammaLen is the length in bits of the Elias gamma code of v ≥ 1.
func gammaLen(v uint64) int { return 2*bits.Len64(v) - 1 }

func TestBitRoundTrip(t *testing.T) {
	var w encode.BitWriter
	w.WriteBit(1)
	w.WriteBits(0b1011, 4)
	w.WriteGamma(1)
	w.WriteGamma(17)
	w.WriteBits(0, 3)
	r := encode.NewBitReader(w.Bytes(), w.Len())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("bit mismatch")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("bits mismatch: %b", v)
	}
	if v, _ := r.ReadGamma(); v != 1 {
		t.Fatalf("gamma(1) read as %d", v)
	}
	if v, _ := r.ReadGamma(); v != 17 {
		t.Fatalf("gamma(17) read as %d", v)
	}
	if v, _ := r.ReadBits(3); v != 0 {
		t.Fatalf("trailing bits %b", v)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("reading past the end should fail")
	}
}

func TestGammaRoundTripProperty(t *testing.T) {
	err := quick.Check(func(raw uint32) bool {
		v := uint64(raw)%100000 + 1
		var w encode.BitWriter
		w.WriteGamma(v)
		if w.Len() != gammaLen(v) {
			return false
		}
		r := encode.NewBitReader(w.Bytes(), w.Len())
		got, err := r.ReadGamma()
		return err == nil && got == v && r.Pos() == w.Len()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteGamma(0) should panic")
		}
	}()
	var w encode.BitWriter
	w.WriteGamma(0)
}

func TestBitStreamProperty(t *testing.T) {
	// Arbitrary mixed sequences of fixed-width fields round-trip.
	err := quick.Check(func(vals []uint16, widthSeed uint8) bool {
		var w encode.BitWriter
		widths := make([]int, len(vals))
		for i, v := range vals {
			widths[i] = int(widthSeed%16) + 1
			w.WriteBits(uint64(v)&((1<<widths[i])-1), widths[i])
			widthSeed = widthSeed*31 + 7
		}
		r := encode.NewBitReader(w.Bytes(), w.Len())
		widthSeed2 := widthSeed
		_ = widthSeed2
		for i, v := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != uint64(v)&((1<<widths[i])-1) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// --- table encoding ---

func mustConstruct(t testing.TB, algoName string, pi []int) *construct.Result {
	t.Helper()
	f, err := mutex.New(algoName, len(pi))
	if err != nil {
		t.Fatal(err)
	}
	res, err := construct.Construct(f, pi)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEncodeParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{mutex.NameYangAnderson, mutex.NameBakery} {
		for _, n := range []int{2, 4, 6} {
			pi := perm.Random(n, rng)
			res := mustConstruct(t, name, pi)
			enc, err := encode.Encode(res.Set)
			if err != nil {
				t.Fatal(err)
			}
			cols, err := encode.ParseBits(enc.Bits, enc.BitLen, n)
			if err != nil {
				t.Fatalf("%s n=%d: ParseBits: %v", name, n, err)
			}
			if len(cols) != len(enc.Columns) {
				t.Fatalf("column count %d, want %d", len(cols), len(enc.Columns))
			}
			for i := range cols {
				if len(cols[i]) != len(enc.Columns[i]) {
					t.Fatalf("column %d length %d, want %d", i, len(cols[i]), len(enc.Columns[i]))
				}
				for j := range cols[i] {
					if cols[i][j] != enc.Columns[i][j] {
						t.Fatalf("cell (%d,%d): parsed %v, encoded %v", i, j, cols[i][j], enc.Columns[i][j])
					}
				}
			}
		}
	}
}

func TestCellsMatchChainLengths(t *testing.T) {
	res := mustConstruct(t, mutex.NameYangAnderson, []int{1, 0, 2})
	enc, err := encode.Encode(res.Set)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if len(enc.Columns[i]) != len(res.Set.Chain(i)) {
			t.Fatalf("column %d has %d cells, chain has %d metasteps", i, len(enc.Columns[i]), len(res.Set.Chain(i)))
		}
	}
}

func TestExactlyOneSignaturePerWriteMetastep(t *testing.T) {
	res := mustConstruct(t, mutex.NameBakery, []int{2, 0, 3, 1})
	enc, err := encode.Encode(res.Set)
	if err != nil {
		t.Fatal(err)
	}
	sigs := 0
	for _, col := range enc.Columns {
		for _, c := range col {
			if c.Tag == encode.TagWSig {
				sigs++
			}
		}
	}
	writes := 0
	for id := 0; id < res.Set.Len(); id++ {
		if res.Set.Meta(metastep.ID(id)).Type == metastep.TypeWrite {
			writes++
		}
	}
	if sigs != writes {
		t.Fatalf("%d signatures for %d write metasteps", sigs, writes)
	}
}

func TestParseBitsRejectsGarbage(t *testing.T) {
	if _, err := encode.ParseBits([]byte{0xFF, 0xFF}, 16, 2); err == nil {
		t.Fatal("garbage accepted")
	}
	res := mustConstruct(t, mutex.NameYangAnderson, []int{0, 1})
	enc, err := encode.Encode(res.Set)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation must be detected.
	if _, err := encode.ParseBits(enc.Bits, enc.BitLen-4, 2); err == nil {
		t.Fatal("truncated bitstring accepted")
	}
	// Wrong process count must be detected (trailing bits or exhaustion).
	if _, err := encode.ParseBits(enc.Bits, enc.BitLen, 1); err == nil {
		t.Fatal("wrong column count accepted")
	}
	// A signature counting more processes than there are must be refused:
	// W = 3 writes in a 2-process encoding.
	var w encode.BitWriter
	w.WriteBits(uint64(encode.TagWSig), 3)
	w.WriteGamma(1)
	w.WriteGamma(1)
	w.WriteGamma(3)
	w.WriteBits(6, 3) // end of column 0
	w.WriteBits(6, 3) // end of column 1
	if cols, err := encode.ParseBits(w.Bytes(), w.Len(), 2); err == nil {
		t.Fatalf("signature W3 accepted for n = 2: %v", cols)
	}
}

func TestHumanReadableForm(t *testing.T) {
	res := mustConstruct(t, mutex.NameYangAnderson, []int{1, 0})
	enc, err := encode.Encode(res.Set)
	if err != nil {
		t.Fatal(err)
	}
	s := enc.String()
	if s == "" {
		t.Fatal("empty string form")
	}
	// The table must contain at least one signature and the column separator.
	if !containsAll(s, "W,PR", "$", "C") {
		t.Fatalf("string form missing expected fragments: %s", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// TestBitLenAccounting: the serialized length equals the sum of per-cell
// costs: 3 bits per tag (+ signature gammas), 3 per column terminator.
func TestBitLenAccounting(t *testing.T) {
	res := mustConstruct(t, mutex.NameYangAnderson, []int{2, 1, 0, 3})
	enc, err := encode.Encode(res.Set)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, col := range enc.Columns {
		for _, c := range col {
			want += 3
			if c.Tag == encode.TagWSig {
				want += gammaLen(uint64(c.Pr)+1) + gammaLen(uint64(c.R)+1) + gammaLen(uint64(c.W))
			}
		}
		want += 3
	}
	if enc.BitLen != want {
		t.Fatalf("BitLen = %d, accounting says %d", enc.BitLen, want)
	}
}
