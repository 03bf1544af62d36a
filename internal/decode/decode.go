// Package decode implements the decoding step of the proof (Section 7,
// Figure 3): given only the encoding E_π (a bitstring) and the algorithm A
// (its transition function δ), it reconstructs an execution α_π that is a
// linearization of the constructed (M, ≼) — without ever seeing π or the
// metastep set.
//
// Uniqueness of decoding is what powers the counting argument of
// Theorem 7.5: Decode is a deterministic function from encodings to
// executions, and the n! constructed executions are pairwise distinct, so
// some encoding must be at least log₂(n!) = Ω(n log n) bits long; by
// Theorem 6.2 the corresponding execution costs Ω(n log n).
//
// The decoder maintains a growing execution α (replayed through live
// automata, so every process's pending step δ(α, i) is available) and
// repeatedly executes a minimal unexecuted metastep:
//
//   - C, SR and PR cells execute immediately (critical steps and
//     standalone reads are singleton metasteps);
//   - R and W cells park the process at its pending register until the
//     register's signature — carried by the winner's cell — matches:
//     the right number of writers are parked, the right number of parked
//     readers would change state on the winner's value, and the right
//     number of prereads have executed. Then the whole write metastep is
//     emitted: non-winning writes, the winning write, the reads.
package decode

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/program"
)

// ErrRMW is returned when the algorithm uses RMW primitives.
var ErrRMW = errors.New("decode: algorithm uses RMW primitives; the decoder requires registers only")

type status uint8

const (
	stNeedCell status = iota
	stParked
	stDone
)

// signature is the parsed cell signature for one register's minimum
// unexecuted write metastep.
type signature struct {
	set    bool // a signature cell arrived and its metastep is not yet emitted
	winner int  // process holding the winning write
	pr     int  // |pread(m)|
	r      int  // |read(m)|
	w      int  // |write(m)| + 1
}

// Decode reconstructs a linearization of the constructed metastep set from
// the encoding bits alone. bitLen is the exact bit length of the encoding.
func Decode(f program.Factory, bits []byte, bitLen int) (model.Execution, error) {
	alpha, _, err := DecodeTraced(f, bits, bitLen)
	return alpha, err
}

// DecodeTraced is Decode that also returns each step's changed flag, as the
// decoder's own System recorded it while stepping α (Trace and Changed).
// cost.Of(f, α, changed) is then α's cost without replaying α again.
func DecodeTraced(f program.Factory, bits []byte, bitLen int) (model.Execution, []bool, error) {
	if f.UsesRMW() {
		return nil, nil, ErrRMW
	}
	n, regs := f.N(), f.NumRegisters()
	cols, err := encode.ParseBits(bits, bitLen, n)
	if err != nil {
		return nil, nil, err
	}

	rep := machine.NewSystem(f)
	// Each cell is one step of its process, so the cells count α's steps.
	cells := 0
	for _, col := range cols {
		cells += len(col)
	}
	rep.Reserve(cells)
	step := func(i int) error {
		_, err := rep.Step(i)
		return err
	}

	pc := make([]int, n)
	st := make([]status, n)
	readers := make([][]int, regs) // parked readers per register, in parking order
	writers := make([][]int, regs) // parked writers per register
	sigs := make([]signature, regs)
	prDone := make([]int, regs) // prereads executed since the register's last write metastep
	var signed []model.RegID    // registers with a signature set, ascending
	var rl []int

	for round := 0; ; round++ {
		if round > 16*(len(rep.Trace())+n+4) {
			return nil, nil, fmt.Errorf("decode: no progress after %d rounds (decoder stuck at %d steps)", round, len(rep.Trace()))
		}
		progress := false
		allDone := true

		// Phase 1 (Figure 3, lines 6-37): compute pending steps for every
		// process whose previous metastep has executed, and either execute
		// its singleton metastep or park it at its register.
		for i := 0; i < n; i++ {
			if st[i] != stNeedCell {
				if st[i] != stDone {
					allDone = false
				}
				continue
			}
			allDone = false
			if pc[i] >= len(cols[i]) {
				if !rep.Halted(i) {
					return nil, nil, fmt.Errorf("decode: process %d out of cells but not halted (pending %v)", i, rep.PendingStep(i))
				}
				st[i] = stDone
				progress = true
				continue
			}
			cell := cols[i][pc[i]]
			pc[i]++
			if rep.Halted(i) {
				return nil, nil, fmt.Errorf("decode: process %d halted with cells remaining", i)
			}
			pending := rep.PendingStep(i)
			if pending.IsShared() && (pending.Reg < 0 || int(pending.Reg) >= regs) {
				return nil, nil, fmt.Errorf("decode: process %d: pending step %v names a register outside [0,%d)", i, pending, regs)
			}
			switch cell.Tag {
			case encode.TagC:
				if pending.Kind != model.KindCrit {
					return nil, nil, fmt.Errorf("decode: process %d: cell C but pending step %v", i, pending)
				}
				if err := step(i); err != nil {
					return nil, nil, err
				}
				progress = true
			case encode.TagSR, encode.TagPR:
				if pending.Kind != model.KindRead {
					return nil, nil, fmt.Errorf("decode: process %d: cell %v but pending step %v", i, cell.Tag, pending)
				}
				if cell.Tag == encode.TagPR {
					prDone[pending.Reg]++
				}
				if err := step(i); err != nil {
					return nil, nil, err
				}
				progress = true
			case encode.TagR:
				if pending.Kind != model.KindRead {
					return nil, nil, fmt.Errorf("decode: process %d: cell R but pending step %v", i, pending)
				}
				readers[pending.Reg] = append(readers[pending.Reg], i)
				st[i] = stParked
				progress = true
			case encode.TagW, encode.TagWSig:
				if pending.Kind != model.KindWrite {
					return nil, nil, fmt.Errorf("decode: process %d: cell %v but pending step %v", i, cell.Tag, pending)
				}
				if cell.Tag == encode.TagWSig {
					reg := pending.Reg
					if sigs[reg].set {
						return nil, nil, fmt.Errorf("decode: register %d: signature from process %d while process %d's is unresolved", reg, i, sigs[reg].winner)
					}
					sigs[reg] = signature{set: true, winner: i, pr: cell.Pr, r: cell.R, w: cell.W}
					at, _ := slices.BinarySearch(signed, reg)
					signed = slices.Insert(signed, at, reg)
				}
				writers[pending.Reg] = append(writers[pending.Reg], i)
				st[i] = stParked
				progress = true
			default:
				return nil, nil, fmt.Errorf("decode: process %d: unexpected tag %v", i, cell.Tag)
			}
		}
		if allDone {
			return rep.Trace(), rep.Changed(), nil
		}

		// Phase 2 (Figure 3, lines 38-45): for each register whose
		// signature is known, in ascending order, test whether the parked
		// processes complete the metastep; if so, emit it.
		unresolved := signed[:0]
		for _, reg := range signed {
			sig := sigs[reg]
			if prDone[reg] != sig.pr || len(writers[reg]) != sig.w {
				unresolved = append(unresolved, reg)
				continue
			}
			winVal := rep.PendingStep(sig.winner).Val
			// R_ℓ: parked readers the winner's value would awaken
			// (Figure 3, line 21). Readers it would not are parts of later
			// metasteps on this register and stay parked.
			rl = rl[:0]
			for _, q := range readers[reg] {
				if rep.Automaton(q).WouldChangeState(winVal) {
					rl = append(rl, q)
				}
			}
			if len(rl) != sig.r {
				unresolved = append(unresolved, reg)
				continue
			}
			// Emit: non-winning writes (ascending process), the winning
			// write, then the reads (ascending process).
			ws := writers[reg]
			slices.Sort(ws)
			for _, q := range ws {
				if q == sig.winner {
					continue
				}
				if err := step(q); err != nil {
					return nil, nil, err
				}
			}
			if err := step(sig.winner); err != nil {
				return nil, nil, err
			}
			slices.Sort(rl)
			for _, q := range rl {
				if err := step(q); err != nil {
					return nil, nil, err
				}
			}
			// Unpark the metastep's processes; other parked readers stay.
			for _, q := range ws {
				st[q] = stNeedCell
			}
			for _, q := range rl {
				st[q] = stNeedCell
			}
			still := readers[reg][:0]
			for _, q := range readers[reg] {
				if st[q] == stParked {
					still = append(still, q)
				}
			}
			readers[reg] = still
			writers[reg] = ws[:0]
			sigs[reg] = signature{}
			prDone[reg] = 0
			progress = true
		}
		signed = unresolved

		if !progress {
			return nil, nil, fmt.Errorf("decode: stuck: %d steps decoded, parked %s", len(rep.Trace()), describeParked(readers, writers, sigs))
		}
	}
}

// describeParked lists, per register, the parked readers and writers and
// the pending signature, for the stuck-decoder error.
func describeParked(readers, writers [][]int, sigs []signature) string {
	var b strings.Builder
	for reg := range sigs {
		if len(readers[reg]) == 0 && len(writers[reg]) == 0 && !sigs[reg].set {
			continue
		}
		fmt.Fprintf(&b, "r%d:{readers=%v writers=%v", reg, readers[reg], writers[reg])
		if s := sigs[reg]; s.set {
			fmt.Fprintf(&b, " sig={win=%d pr=%d r=%d w=%d}", s.winner, s.pr, s.r, s.w)
		}
		b.WriteString("} ")
	}
	return b.String()
}
