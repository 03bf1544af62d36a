package trace_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mutex"
	_ "repro/internal/rmw" // registers tas and mcs, so records naming them verify
	"repro/internal/trace"
)

// liveRecord runs name/n under round-robin and captures the full record
// the way the engine's capture path does: Trace() + Changed() off a System.
func liveRecord(t *testing.T, name string, n int) (*mutex.Factory, trace.Record) {
	t.Helper()
	f, err := mutex.New(name, n)
	if err != nil {
		t.Fatal(err)
	}
	s := machine.NewSystem(f)
	exec, err := machine.Run(s, machine.NewRoundRobin(), machine.DefaultHorizon(n))
	if err != nil {
		t.Fatal(err)
	}
	return f, trace.Record{Algo: name, N: n, Exec: exec, Changed: s.Changed()}
}

func TestRecordRoundTrip(t *testing.T) {
	_, rec := liveRecord(t, mutex.NameYangAnderson, 3)
	blob, err := trace.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.DecodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	// Deterministic: encoding the decoded record reproduces the bytes.
	blob2, err := trace.EncodeRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded record changed the bytes")
	}
}

func TestRecordRoundTripAllKinds(t *testing.T) {
	// Synthetic record touching every step kind, crit kind, RMW kind, and
	// negative operands (zigzag path). Codec-only: no replay semantics.
	rec := trace.Record{
		Algo:    "synthetic",
		N:       4,
		Horizon: 123,
		Exec: model.Execution{
			{Proc: 0, Kind: model.KindRead, Reg: 7, Val: -5},
			{Proc: 1, Kind: model.KindWrite, Reg: 0, Val: 1 << 40},
			{Proc: 2, Kind: model.KindRMW, Reg: 3, Val: -1, RMW: model.RMWCompareAndSwap, Arg1: -7, Arg2: 9},
			{Proc: 3, Kind: model.KindCrit, Crit: model.CritEnter},
			{Proc: 3, Kind: model.KindCrit, Crit: model.CritExit},
		},
		Changed: []bool{true, false, true, true, false},
	}
	blob, err := trace.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.DecodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
}

func TestEncodeRejectsMalformed(t *testing.T) {
	ok := trace.Record{Algo: "x", N: 1, Exec: model.Execution{{Proc: 0, Kind: model.KindCrit, Crit: model.CritTry}}, Changed: []bool{true}}
	if _, err := trace.EncodeRecord(ok); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := map[string]trace.Record{
		"misaligned changed": {Algo: "x", N: 1, Exec: ok.Exec, Changed: nil},
		"bad n":              {Algo: "x", N: 0, Exec: nil, Changed: nil},
		"proc out of range":  {Algo: "x", N: 1, Exec: model.Execution{{Proc: 1, Kind: model.KindCrit}}, Changed: []bool{false}},
	}
	for name, rec := range cases {
		if _, err := trace.EncodeRecord(rec); err == nil {
			t.Errorf("%s: encode accepted", name)
		}
	}
}

// TestDecodeRefusesImpossibleHeader: a header no capture writes is
// refused before anything is built from it. The 13-byte blob claims
// n = 2⁴⁰ processes and no steps; replay would build its factory at that
// n. A record with no steps, and a step whose process number does not
// fit an int, are refused too.
func TestDecodeRefusesImpossibleHeader(t *testing.T) {
	header := func(n, steps uint64) []byte {
		blob := []byte("RTB1")
		blob = binary.AppendUvarint(blob, 0) // empty algorithm name
		blob = binary.AppendUvarint(blob, n)
		blob = binary.AppendUvarint(blob, 0) // horizon
		return binary.AppendUvarint(blob, steps)
	}
	huge := header(1<<40, 0)
	if len(huge) != 13 {
		t.Fatalf("test blob is %d bytes, want 13", len(huge))
	}
	farProc := binary.AppendUvarint(header(3, 1), 1<<63)
	farProc = append(farProc, byte(model.KindCrit))
	for name, blob := range map[string][]byte{
		"n=2^40, no steps":      huge,
		"n=2^40, one step":      append(header(1<<40, 1), 0, byte(model.KindCrit)),
		"n=3, no steps":         header(3, 0),
		"process 2^63 of three": farProc,
	} {
		if rec, err := trace.DecodeRecord(blob); err == nil {
			t.Errorf("%s: decoded as n=%d with %d steps", name, rec.N, len(rec.Exec))
		}
	}
	if _, err := trace.DecodeRecord(append(header(3, 1), 0, byte(model.KindCrit))); err != nil {
		t.Fatalf("a one-step record at n=3 refused: %v", err)
	}
	for name, rec := range map[string]trace.Record{
		"n=2^40":   {Algo: "x", N: 1 << 40, Exec: model.Execution{{Kind: model.KindCrit}}, Changed: []bool{true}},
		"no steps": {Algo: "x", N: 3},
	} {
		if _, err := trace.EncodeRecord(rec); err == nil {
			t.Errorf("%s: encoded a record DecodeRecord refuses", name)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	_, rec := liveRecord(t, mutex.NameBakery, 2)
	blob, err := trace.EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix is truncated; every suffix addition is trailing
	// garbage; a flipped magic is a foreign blob.
	for _, cut := range []int{0, 1, 3, 4, 10, len(blob) / 2, len(blob) - 1} {
		if _, err := trace.DecodeRecord(blob[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := trace.DecodeRecord(append(bytes.Clone(blob), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := bytes.Clone(blob)
	bad[0] ^= 0xff
	if _, err := trace.DecodeRecord(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestVerifyRecord(t *testing.T) {
	f, rec := liveRecord(t, mutex.NameYangAnderson, 3)
	sc, err := trace.VerifyRecord(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	if sc <= 0 {
		t.Fatalf("verified replay charged %d shared steps, want > 0", sc)
	}

	// A tampered read result must be refused: replay fills the true value.
	tampered := rec
	tampered.Exec = append(model.Execution(nil), rec.Exec...)
	for i, s := range tampered.Exec {
		if s.Kind == model.KindRead {
			tampered.Exec[i].Val = s.Val + 99
			break
		}
	}
	if _, err := trace.VerifyRecord(f, tampered); err == nil {
		t.Error("tampered read value verified")
	}

	// A flipped charge flag on a shared step must be refused.
	flipped := rec
	flipped.Changed = append([]bool(nil), rec.Changed...)
	for i, s := range flipped.Exec {
		if s.IsShared() {
			flipped.Changed[i] = !flipped.Changed[i]
			break
		}
	}
	if _, err := trace.VerifyRecord(f, flipped); err == nil {
		t.Error("flipped changed flag verified")
	}

	// So must a flipped flag on a critical step: the record carries every
	// flag its System recorded, and replay recovers all of them.
	flipped.Changed = append([]bool(nil), rec.Changed...)
	flipped.Changed[0] = !flipped.Changed[0] // step 0 is a try
	if _, err := trace.VerifyRecord(f, flipped); err == nil {
		t.Error("flipped critical-step flag verified")
	}

	// So must flags that do not align with the steps, instead of indexing
	// past them.
	short := rec
	short.Changed = rec.Changed[:len(rec.Changed)-1]
	if _, err := trace.VerifyRecord(f, short); err == nil {
		t.Error("misaligned changed flags verified")
	}

	// A wrong-size factory must be refused before replay starts.
	f2, err := mutex.New(mutex.NameYangAnderson, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.VerifyRecord(f2, rec); err == nil {
		t.Error("mismatched process count verified")
	}
}

// TestDecodeRecordAllocationBoundedByInput: a 12-byte blob whose header
// claims 2²² steps is refused as truncated without allocating for the
// steps it claims, and valid records still round-trip byte for byte.
func TestDecodeRecordAllocationBoundedByInput(t *testing.T) {
	blob := []byte("RTB1")
	blob = binary.AppendUvarint(blob, 1)
	blob = append(blob, 'a')
	blob = binary.AppendUvarint(blob, 1)     // n
	blob = binary.AppendUvarint(blob, 0)     // horizon
	blob = binary.AppendUvarint(blob, 1<<22) // steps
	if len(blob) != 12 {
		t.Fatalf("test blob is %d bytes, want 12", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := trace.DecodeRecord(blob)
	runtime.ReadMemStats(&after)
	if err == nil || err.Error() != "trace: truncated record" {
		t.Fatalf("DecodeRecord = %v, want trace: truncated record", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("decoding a 12-byte blob allocated %d bytes, want under 64 KB", grew)
	}

	for _, name := range []string{mutex.NameYangAnderson, mutex.NameBakery} {
		_, rec := liveRecord(t, name, 4)
		enc, err := trace.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.DecodeRecord(enc)
		if err != nil {
			t.Fatal(err)
		}
		again, err := trace.EncodeRecord(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) || !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: record does not round-trip byte for byte", name)
		}
	}
}

// FuzzDecodeRecord feeds the record decoder arbitrary bytes. The seed
// corpus in testdata/fuzz/FuzzDecodeRecord holds real captures:
// yang-anderson and peterson at n = 3 under round-robin, and a bakery
// schedule candidate the horizon cut short. Whatever the input,
// DecodeRecord returns without panicking; a record it accepts re-encodes
// and decodes back to itself; and VerifyRecord, given the factory the
// record names, refuses it or accepts it and charges exactly its changed
// shared steps. The factory is built only at n ≤ 8, so no input makes the
// fuzzer build a large one.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		rec, err := trace.DecodeRecord(blob)
		if err != nil {
			return
		}
		enc, err := trace.EncodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		again, err := trace.DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("record does not round-trip:\n got %+v\nwant %+v", again, rec)
		}
		if rec.N > 8 {
			return
		}
		fac, err := mutex.New(rec.Algo, rec.N)
		if err != nil {
			return
		}
		sc, err := trace.VerifyRecord(fac, rec)
		if err != nil {
			return
		}
		want := 0
		for i, s := range rec.Exec {
			if s.IsShared() && rec.Changed[i] {
				want++
			}
		}
		if sc != want {
			t.Fatalf("verified record charged %d, want its %d changed shared steps", sc, want)
		}
	})
}
