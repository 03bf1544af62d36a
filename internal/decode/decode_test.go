package decode_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/construct"
	"repro/internal/decode"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/mutex"
	"repro/internal/perm"
	"repro/internal/program"
	"repro/internal/rmw"
)

func pipelineBits(t testing.TB, algoName string, pi []int) (*mutex.Factory, *construct.Result, *encode.Encoding) {
	t.Helper()
	f, err := mutex.New(algoName, len(pi))
	if err != nil {
		t.Fatal(err)
	}
	res, err := construct.Construct(f, pi)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := encode.Encode(res.Set)
	if err != nil {
		t.Fatal(err)
	}
	return f, res, enc
}

// TestDecodeDeterministic: decoding the same bits twice yields identical
// executions (the decoder is the injectivity witness, so it must be a
// function).
func TestDecodeDeterministic(t *testing.T) {
	f, _, enc := pipelineBits(t, mutex.NameYangAnderson, []int{2, 0, 1, 3})
	a, err := decode.Decode(f, enc.Bits, enc.BitLen)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decode.Decode(f, enc.Bits, enc.BitLen)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("decoder is nondeterministic")
	}
}

// TestDecodeUsesOnlyBits: decoding with a *fresh* factory instance (no
// shared state with the construction) succeeds — the decoder's only inputs
// are the bits and δ.
func TestDecodeUsesOnlyBits(t *testing.T) {
	_, res, enc := pipelineBits(t, mutex.NameBakery, []int{3, 1, 0, 2})
	fresh, err := mutex.New(mutex.NameBakery, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decode.Decode(fresh, enc.Bits, enc.BitLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Set.CheckLinearization(dec); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRejectsCorruptedBits: flipping bits must produce an error, not
// a silently wrong execution that still parses. (Some flips may produce a
// different valid-looking table; the decoder must then fail one of its
// pending-step consistency checks. A flip can at worst produce a decode of
// a DIFFERENT valid encoding — with 3-bit tags that requires a consistent
// table, which the pending-step checks make overwhelmingly unlikely; we
// assert error or inequality.)
func TestDecodeRejectsCorruptedBits(t *testing.T) {
	f, _, enc := pipelineBits(t, mutex.NameYangAnderson, []int{1, 2, 0})
	orig, err := decode.Decode(f, enc.Bits, enc.BitLen)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	flips := 0
	for trial := 0; trial < 40; trial++ {
		pos := rng.Intn(enc.BitLen)
		bits := append([]byte(nil), enc.Bits...)
		bits[pos/8] ^= 1 << (7 - pos%8)
		dec, err := decode.Decode(f, bits, enc.BitLen)
		if err == nil && dec.Equal(orig) {
			t.Fatalf("bit flip at %d decoded to the original execution", pos)
		}
		if err != nil {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("no corruption was ever detected across 40 flips")
	}
}

// TestDecodeRejectsTruncation.
func TestDecodeRejectsTruncation(t *testing.T) {
	f, _, enc := pipelineBits(t, mutex.NameYangAnderson, []int{0, 1})
	if _, err := decode.Decode(f, enc.Bits, enc.BitLen-5); err == nil {
		t.Fatal("truncated encoding accepted")
	}
}

// TestDecodeRejectsRMW.
func TestDecodeRejectsRMW(t *testing.T) {
	f, err := rmw.TestAndSet(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode.Decode(f, []byte{0}, 3); err == nil {
		t.Fatal("RMW factory accepted")
	}
}

// TestDecodeWrongAlgorithm: bits encoded against one algorithm must not
// silently decode against another (the cell stream will not match the
// other algorithm's pending steps).
func TestDecodeWrongAlgorithm(t *testing.T) {
	_, _, enc := pipelineBits(t, mutex.NameBakery, []int{1, 0, 2})
	other, err := mutex.New(mutex.NameYangAnderson, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode.Decode(other, enc.Bits, enc.BitLen); err == nil {
		t.Fatal("bakery encoding decoded against yang-anderson")
	}
}

// TestDecodeAllPermsMatchesConstruction: for every π in S_4, the decoded
// execution is a linearization of that π's construction — and of no other
// π's (entry orders differ).
func TestDecodeAllPermsMatchesConstruction(t *testing.T) {
	f, err := mutex.New(mutex.NameYangAnderson, 4)
	if err != nil {
		t.Fatal(err)
	}
	perm.ForEach(4, func(pi []int) bool {
		res, err := construct.Construct(f, pi)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := encode.Encode(res.Set)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decode.Decode(f, enc.Bits, enc.BitLen)
		if err != nil {
			t.Fatalf("pi=%v: %v", pi, err)
		}
		got := dec.EntryOrder()
		for k := range pi {
			if got[k] != pi[k] {
				t.Fatalf("pi=%v decoded with entry order %v", pi, got)
			}
		}
		return true
	})
}

// TestDecodeRejectsBadBitLength: a bit length longer than the bits, or
// negative, is an error, not a panic.
func TestDecodeRejectsBadBitLength(t *testing.T) {
	f, err := mutex.New(mutex.NameYangAnderson, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, bitLen := range []int{64, 9, -1} {
		if _, err := decode.Decode(f, []byte{0xff}, bitLen); err == nil {
			t.Fatalf("bitLen=%d over one byte accepted", bitLen)
		}
	}
}

// TestDecodeRejectsOutOfRangeRegister: a cell whose process's pending step
// names a register outside the factory's file ends the decode with an
// error naming the register, for every shared cell tag.
func TestDecodeRejectsOutOfRangeRegister(t *testing.T) {
	for _, tag := range []encode.Tag{encode.TagR, encode.TagW, encode.TagWSig, encode.TagPR, encode.TagSR} {
		layout := mutex.NewLayout()
		layout.Reg("r", 0, -1)
		b := program.NewBuilder("stray")
		b.Try()
		if tag == encode.TagW || tag == encode.TagWSig {
			b.Write(5, program.Const(1))
		} else {
			b.Read(5, b.Var("x"))
		}
		b.Enter()
		b.Exit()
		b.Rem()
		f := mutex.NewFactory("stray", layout, []*program.Program{b.MustBuild()})
		var w encode.BitWriter
		w.WriteBits(uint64(encode.TagC), 3)
		w.WriteBits(uint64(tag), 3)
		if tag == encode.TagWSig {
			w.WriteGamma(1)
			w.WriteGamma(1)
			w.WriteGamma(1)
		}
		w.WriteBits(uint64(encode.TagC)+1, 3) // the column's end tag
		_, err := decode.Decode(f, w.Bytes(), w.Len())
		if err == nil || !strings.Contains(err.Error(), "outside [0,1)") {
			t.Fatalf("cell %v for a step on r5 with one register: got error %v, want one naming the register file", tag, err)
		}
	}
}

// TestDecodeTracedFlagsMatchReplay: the changed flags DecodeTraced returns
// are the ones a fresh replay of α records, and α is Decode's, for every
// register algorithm over all of S_3 (S_2 for dekker).
func TestDecodeTracedFlagsMatchReplay(t *testing.T) {
	for _, name := range mutex.Names() {
		n := 3
		if name == mutex.NameDekker {
			n = 2
		}
		f, err := mutex.New(name, n)
		if err != nil {
			t.Fatal(err)
		}
		if f.UsesRMW() {
			continue
		}
		perm.ForEach(n, func(pi []int) bool {
			_, _, enc := pipelineBits(t, name, pi)
			alpha, changed, err := decode.DecodeTraced(f, enc.Bits, enc.BitLen)
			if err != nil {
				t.Fatalf("%s pi=%v: %v", name, pi, err)
			}
			_, want, err := machine.ReplayExecution(f, alpha)
			if err != nil {
				t.Fatalf("%s pi=%v: %v", name, pi, err)
			}
			if !slices.Equal(changed, want) {
				t.Fatalf("%s pi=%v: decoder's flags %v, replay's %v", name, pi, changed, want)
			}
			if plain, err := decode.Decode(f, enc.Bits, enc.BitLen); err != nil || !plain.Equal(alpha) {
				t.Fatalf("%s pi=%v: Decode disagrees with DecodeTraced (%v)", name, pi, err)
			}
			return true
		})
	}
}
