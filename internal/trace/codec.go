package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/program"
)

// Execution-record codec: the blob payload the capture path persists under
// a unit's content address, and replay/observe decode back. A Record is
// self-describing — algorithm name, process count, and horizon ride with
// the step log — so a stored key replays with zero re-simulation: the
// decoder rebuilds the factory from the record alone and replays it through
// a fresh machine.System, never a scheduler.
//
// The encoding is a compact varint framing, deliberately uncompressed:
// blob transports and file stores compress at their edges (the remote
// blob endpoints gzip bodies through the shared pools, FileBlobs gzips
// before logging), so the codec stays a pure, deterministic function of
// the record — identical records encode to identical bytes in every
// process, which is what lets CI compare replayed artifacts with cmp.
//
//	magic "RTB1"
//	uvarint len(algo), algo bytes
//	uvarint n, uvarint horizon, uvarint len(exec)
//	per step:
//	  uvarint proc
//	  flag byte: kind | changed<<2 | crit<<3 | rmw<<5
//	  KindRead/KindWrite: uvarint reg, varint val
//	  KindRMW:            uvarint reg, varint val, varint arg1, varint arg2
//	  KindCrit:           nothing further
const recordMagic = "RTB1"

// maxRecordSteps bounds a decoded execution so a corrupt length prefix
// cannot ask for an absurd allocation; the largest real horizon
// (machine.DefaultHorizon) is far below it.
const maxRecordSteps = 1 << 26

// maxRecordN bounds a record's process count. Replay builds the record's
// factory at that n before it reads a step (runner.NewFactory in
// cmd/observe), and a factory holds at least one program per process, so
// an unchecked header could make replay build one of any size. The
// largest n a capturing binary admits by default is cmd/experimentd's
// -max-n of 256; the bound is four times that, so a capture made at a
// larger -n still replays. EncodeRecord refuses what DecodeRecord would,
// so capture never stores a record replay refuses.
const maxRecordN = 1 << 10

// Record is one captured execution: everything replay needs, keyed in the
// blob store by the executed unit's result cache key.
type Record struct {
	// Algo is the algorithm name runner.NewFactory resolves.
	Algo string
	// N is the process count.
	N int
	// Horizon is the step budget the run was driven under (0 = default).
	Horizon int
	// Exec is the recorded step log (System.Trace()), read results filled.
	Exec model.Execution
	// Changed holds the per-step state-change flags (System.Changed()),
	// aligned with Exec.
	Changed []bool
}

// EncodeRecord serializes rec. Changed must align with Exec.
func EncodeRecord(rec Record) ([]byte, error) {
	if len(rec.Changed) != len(rec.Exec) {
		return nil, fmt.Errorf("trace: encode: %d steps but %d changed flags", len(rec.Exec), len(rec.Changed))
	}
	if rec.N <= 0 || rec.N > maxRecordN {
		return nil, fmt.Errorf("trace: encode: bad process count %d", rec.N)
	}
	if len(rec.Exec) == 0 {
		return nil, errors.New("trace: encode: no steps")
	}
	// ~6 bytes per step is the steady-state size; a short header on top.
	buf := make([]byte, 0, len(recordMagic)+len(rec.Algo)+16+6*len(rec.Exec))
	buf = append(buf, recordMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Algo)))
	buf = append(buf, rec.Algo...)
	buf = binary.AppendUvarint(buf, uint64(rec.N))
	buf = binary.AppendUvarint(buf, uint64(rec.Horizon))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Exec)))
	for t, s := range rec.Exec {
		if s.Proc < 0 || s.Proc >= rec.N {
			return nil, fmt.Errorf("trace: encode step %d: process %d out of range [0,%d)", t, s.Proc, rec.N)
		}
		flags := byte(s.Kind) & 0b11
		if rec.Changed[t] {
			flags |= 1 << 2
		}
		flags |= (byte(s.Crit) & 0b11) << 3
		flags |= (byte(s.RMW) & 0b11) << 5
		buf = binary.AppendUvarint(buf, uint64(s.Proc))
		buf = append(buf, flags)
		switch s.Kind {
		case model.KindRead, model.KindWrite:
			buf = binary.AppendUvarint(buf, uint64(s.Reg))
			buf = binary.AppendVarint(buf, s.Val)
		case model.KindRMW:
			buf = binary.AppendUvarint(buf, uint64(s.Reg))
			buf = binary.AppendVarint(buf, s.Val)
			buf = binary.AppendVarint(buf, s.Arg1)
			buf = binary.AppendVarint(buf, s.Arg2)
		case model.KindCrit:
			// Crit kind rode in the flag byte.
		default:
			return nil, fmt.Errorf("trace: encode step %d: unknown kind %d", t, s.Kind)
		}
	}
	return buf, nil
}

// recordReader decodes varints off a byte slice with one sticky error.
type recordReader struct {
	buf []byte
	err error
}

func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errors.New("trace: truncated record")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *recordReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = errors.New("trace: truncated record")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *recordReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < n {
		r.err = errors.New("trace: truncated record")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// DecodeRecord parses an encoded record. Any framing damage — wrong magic,
// truncation, out-of-range counts, trailing garbage — is an error: a blob
// that does not decode exactly is corrupt, and replay must refuse it
// rather than replay something else. So is a header no capture writes: a
// process count outside [1, maxRecordN], or no steps. Both are refused
// before anything is sized from them.
func DecodeRecord(b []byte) (Record, error) {
	var rec Record
	if len(b) < len(recordMagic) || string(b[:len(recordMagic)]) != recordMagic {
		return rec, errors.New("trace: blob lacks RTB1 magic")
	}
	r := &recordReader{buf: b[len(recordMagic):]}
	rec.Algo = string(r.bytes(r.uvarint()))
	n := r.uvarint()
	rec.Horizon = int(r.uvarint())
	steps := r.uvarint()
	if r.err != nil {
		return rec, r.err
	}
	if n == 0 || n > maxRecordN || steps == 0 || steps > maxRecordSteps {
		return rec, fmt.Errorf("trace: implausible record header (n=%d, steps=%d)", n, steps)
	}
	rec.N = int(n)
	// Preallocate no more than the remaining bytes can hold, at two bytes
	// (a process and a flag byte) per step: the header's count is not yet
	// checked against the record.
	prealloc := min(steps, uint64(len(r.buf)/2))
	rec.Exec = make(model.Execution, 0, prealloc)
	rec.Changed = make([]bool, 0, prealloc)
	for t := uint64(0); t < steps; t++ {
		proc := r.uvarint()
		fb := r.bytes(1)
		if r.err != nil {
			return rec, r.err
		}
		flags := fb[0]
		if proc >= n {
			return rec, fmt.Errorf("trace: step %d: process %d out of range [0,%d)", t, proc, n)
		}
		s := model.Step{
			Proc: int(proc),
			Kind: model.Kind(flags & 0b11),
			Crit: model.CritKind((flags >> 3) & 0b11),
			RMW:  model.RMWKind((flags >> 5) & 0b11),
		}
		if flags&(1<<7) != 0 {
			return rec, fmt.Errorf("trace: step %d: reserved flag bit set", t)
		}
		switch s.Kind {
		case model.KindRead, model.KindWrite:
			s.Reg = model.RegID(r.uvarint())
			s.Val = r.varint()
		case model.KindRMW:
			s.Reg = model.RegID(r.uvarint())
			s.Val = r.varint()
			s.Arg1 = r.varint()
			s.Arg2 = r.varint()
		}
		if r.err != nil {
			return rec, r.err
		}
		rec.Exec = append(rec.Exec, s)
		rec.Changed = append(rec.Changed, flags&(1<<2) != 0)
	}
	if len(r.buf) != 0 {
		return rec, fmt.Errorf("trace: %d trailing bytes after record", len(r.buf))
	}
	return rec, nil
}

// VerifyRecord replays the record against fresh automata for its factory
// (machine.ReplayExecution) and asserts the stored execution is exactly
// what the algorithm does: every step must match the acting process's
// pending step (register, kind, operands, read result) and every recorded
// state-change flag must match the replayed one. A verified record is then
// what its System recorded, so the views render it without stepping it
// again. Returns the SC cost: the shared steps whose flag is set.
func VerifyRecord(f program.Factory, rec Record) (sc int, err error) {
	if f.N() != rec.N {
		return 0, fmt.Errorf("trace: record says n=%d but factory has n=%d", rec.N, f.N())
	}
	if len(rec.Changed) != len(rec.Exec) {
		return 0, fmt.Errorf("trace: verify: %d steps but %d changed flags", len(rec.Exec), len(rec.Changed))
	}
	done, changed, err := machine.ReplayExecution(f, rec.Exec)
	if err != nil {
		return 0, fmt.Errorf("trace: verify: %w", err)
	}
	for t, s := range rec.Exec {
		if done[t] != s {
			return 0, fmt.Errorf("trace: verify step %d: recorded %v but replay produced %v", t, s, done[t])
		}
		if changed[t] != rec.Changed[t] {
			return 0, fmt.Errorf("trace: verify step %d: recorded changed=%v but replay changed=%v", t, rec.Changed[t], changed[t])
		}
		if changed[t] && s.IsShared() {
			sc++
		}
	}
	return sc, nil
}
