package encode

import "testing"

// FuzzParseBits feeds ParseBits arbitrary bits, bit lengths and process
// counts n in [-1, 64]. The seed corpus in testdata/fuzz/FuzzParseBits
// holds real S_3 encodings of yang-anderson and peterson and the inputs
// that once panicked or sized the column table from n alone. Whatever the
// input, ParseBits returns without panicking; when it accepts, it returns
// n columns, and writing them back through Encode's serializer gives the
// same bitLen bits.
func FuzzParseBits(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits []byte, bitLen int, n int8) {
		if n < -1 || n > 64 {
			return
		}
		cols, err := ParseBits(bits, bitLen, int(n))
		if err != nil {
			return
		}
		if len(cols) != int(n) {
			t.Fatalf("accepted %d bits as %d columns, want n = %d", bitLen, len(cols), n)
		}
		got, gotLen := writeColumns(cols)
		if gotLen != bitLen {
			t.Fatalf("%d bits parse to columns %v, which write back as %d bits", bitLen, cols, gotLen)
		}
		for i := 0; i < bitLen; i++ {
			if got[i/8]>>(7-i%8)&1 != bits[i/8]>>(7-i%8)&1 {
				t.Fatalf("%d bits parse to columns %v, which write back differing at bit %d", bitLen, cols, i)
			}
		}
	})
}
