package decode_test

import (
	"slices"
	"testing"

	"repro/internal/decode"
	"repro/internal/machine"
	"repro/internal/mutex"
	"repro/internal/verify"
)

// FuzzDecode feeds the decoder arbitrary bits for yang-anderson or
// peterson at n = 3 (the first argument picks one). The seed corpus in
// testdata/fuzz/FuzzDecode holds the real encodings of every permutation
// of S_3 for both. Whatever the input, Decode returns without panicking;
// when it accepts, α must be an execution of the algorithm
// (verify.Replayable), and the changed flags it hands back must be the ones
// a fresh replay of α records.
func FuzzDecode(f *testing.F) {
	var factories []*mutex.Factory
	for _, name := range []string{mutex.NameYangAnderson, mutex.NamePeterson} {
		fac, err := mutex.New(name, 3)
		if err != nil {
			f.Fatal(err)
		}
		factories = append(factories, fac)
	}
	f.Fuzz(func(t *testing.T, algo byte, bits []byte, bitLen int) {
		fac := factories[int(algo)%len(factories)]
		alpha, changed, err := decode.DecodeTraced(fac, bits, bitLen)
		if err != nil {
			return
		}
		if err := verify.Replayable(fac, alpha); err != nil {
			t.Fatalf("%s: accepted α does not replay: %v", fac.Name(), err)
		}
		_, want, err := machine.ReplayExecution(fac, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(changed, want) {
			t.Fatalf("%s: decoder's changed flags %v, replay's %v", fac.Name(), changed, want)
		}
		if plain, err := decode.Decode(fac, bits, bitLen); err != nil || !plain.Equal(alpha) {
			t.Fatalf("%s: Decode disagrees with DecodeTraced: %v", fac.Name(), err)
		}
	})
}
