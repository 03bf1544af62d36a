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
	"sort"

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
	winner int // process holding the winning write
	pr     int // |pread(m)|
	r      int // |read(m)|
	w      int // |write(m)| + 1
}

// Decode reconstructs a linearization of the constructed metastep set from
// the encoding bits alone. bitLen is the exact bit length of the encoding.
func Decode(f program.Factory, bits []byte, bitLen int) (model.Execution, error) {
	if f.UsesRMW() {
		return nil, ErrRMW
	}
	n := f.N()
	cols, err := encode.ParseBits(bits, bitLen, n)
	if err != nil {
		return nil, err
	}

	rep := machine.NewSystem(f)
	var alpha model.Execution
	apply := func(step model.Step) error {
		done, _, err := rep.Replay(step)
		if err != nil {
			return err
		}
		alpha = append(alpha, done)
		return nil
	}

	pc := make([]int, n)
	st := make([]status, n)
	readers := make(map[model.RegID][]int)
	writers := make(map[model.RegID][]int)
	sigs := make(map[model.RegID]*signature)
	prDone := make(map[model.RegID]int)

	for round := 0; ; round++ {
		if round > 16*(len(alpha)+n+4) {
			return nil, fmt.Errorf("decode: no progress after %d rounds (decoder stuck at %d steps)", round, len(alpha))
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
					return nil, fmt.Errorf("decode: process %d out of cells but not halted (pending %v)", i, rep.PendingStep(i))
				}
				st[i] = stDone
				progress = true
				continue
			}
			cell := cols[i][pc[i]]
			pc[i]++
			if rep.Halted(i) {
				return nil, fmt.Errorf("decode: process %d halted with cells remaining", i)
			}
			pending := rep.PendingStep(i)
			switch cell.Tag {
			case encode.TagC:
				if pending.Kind != model.KindCrit {
					return nil, fmt.Errorf("decode: process %d: cell C but pending step %v", i, pending)
				}
				if err := apply(pending); err != nil {
					return nil, err
				}
				progress = true
			case encode.TagSR, encode.TagPR:
				if pending.Kind != model.KindRead {
					return nil, fmt.Errorf("decode: process %d: cell %v but pending step %v", i, cell.Tag, pending)
				}
				if cell.Tag == encode.TagPR {
					prDone[pending.Reg]++
				}
				if err := apply(pending); err != nil {
					return nil, err
				}
				progress = true
			case encode.TagR:
				if pending.Kind != model.KindRead {
					return nil, fmt.Errorf("decode: process %d: cell R but pending step %v", i, pending)
				}
				readers[pending.Reg] = append(readers[pending.Reg], i)
				st[i] = stParked
				progress = true
			case encode.TagW, encode.TagWSig:
				if pending.Kind != model.KindWrite {
					return nil, fmt.Errorf("decode: process %d: cell %v but pending step %v", i, cell.Tag, pending)
				}
				if cell.Tag == encode.TagWSig {
					if old := sigs[pending.Reg]; old != nil {
						return nil, fmt.Errorf("decode: register %d: signature from process %d while process %d's is unresolved", pending.Reg, i, old.winner)
					}
					sigs[pending.Reg] = &signature{winner: i, pr: cell.Pr, r: cell.R, w: cell.W}
				}
				writers[pending.Reg] = append(writers[pending.Reg], i)
				st[i] = stParked
				progress = true
			default:
				return nil, fmt.Errorf("decode: process %d: unexpected tag %v", i, cell.Tag)
			}
		}
		if allDone {
			return alpha, nil
		}

		// Phase 2 (Figure 3, lines 38-45): for each register whose
		// signature is known, test whether the parked processes complete
		// the metastep; if so, emit it.
		regs := make([]model.RegID, 0, len(sigs))
		for reg := range sigs {
			regs = append(regs, reg)
		}
		sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
		for _, reg := range regs {
			sig := sigs[reg]
			if prDone[reg] != sig.pr || len(writers[reg]) != sig.w {
				continue
			}
			winVal := rep.PendingStep(sig.winner).Val
			// R_ℓ: parked readers the winner's value would awaken
			// (Figure 3, line 21). Readers it would not are parts of later
			// metasteps on this register and stay parked.
			var rl []int
			for _, q := range readers[reg] {
				if rep.Automaton(q).WouldChangeState(winVal) {
					rl = append(rl, q)
				}
			}
			if len(rl) != sig.r {
				continue
			}
			// Emit: non-winning writes (ascending process), the winning
			// write, then the reads (ascending process).
			ws := append([]int(nil), writers[reg]...)
			sort.Ints(ws)
			for _, q := range ws {
				if q == sig.winner {
					continue
				}
				if err := apply(rep.PendingStep(q)); err != nil {
					return nil, err
				}
			}
			if err := apply(rep.PendingStep(sig.winner)); err != nil {
				return nil, err
			}
			sort.Ints(rl)
			for _, q := range rl {
				if err := apply(rep.PendingStep(q)); err != nil {
					return nil, err
				}
			}
			// Unpark the metastep's processes; other parked readers stay.
			for _, q := range ws {
				st[q] = stNeedCell
			}
			inRl := make(map[int]bool, len(rl))
			for _, q := range rl {
				st[q] = stNeedCell
				inRl[q] = true
			}
			var still []int
			for _, q := range readers[reg] {
				if !inRl[q] {
					still = append(still, q)
				}
			}
			readers[reg] = still
			writers[reg] = nil
			delete(sigs, reg)
			prDone[reg] = 0
			progress = true
		}

		if !progress {
			return nil, fmt.Errorf("decode: stuck: %d steps decoded, parked readers=%v writers=%v sigs=%v", len(alpha), readers, writers, describeSigs(sigs))
		}
	}
}

func describeSigs(sigs map[model.RegID]*signature) string {
	out := ""
	for reg, s := range sigs {
		out += fmt.Sprintf("r%d:{win=%d pr=%d r=%d w=%d} ", reg, s.winner, s.pr, s.r, s.w)
	}
	return out
}
