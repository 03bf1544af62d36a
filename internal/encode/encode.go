// Package encode implements the encoding step of the proof (Section 6,
// Figure 2): it turns the constructed (M, ≼) into a string E_π of length
// O(C), where C is the state change cost of (every) linearization.
//
// The encoding is the paper's table T with n columns: cell T(i, j) records
// what process p_i does in its j'th metastep —
//
//	R     a read inside a write metastep (the reader waits for the winner)
//	W     a non-winning write inside a write metastep
//	W,sig the winning write, with the metastep's signature
//	      PR x R y W z: |pread(m)|, |read(m)|, |write(m)|+1
//	PR    a standalone read metastep that is some write metastep's preread
//	SR    a standalone read metastep that is nobody's preread
//	C     a critical step
//
// Crucially the signature carries only counts — not which processes, which
// register, or what value — which is why a metastep with k processes costs
// O(k) bits against the O(k) state changes its execution incurs
// (Theorem 6.2). The decoder recovers everything else by running the
// algorithm's transition function.
//
// Cells are serialized with 3-bit tags and Elias gamma counts, so the
// encoding is self-delimiting and its length is measured in exact bits.
package encode

import (
	"fmt"
	"strings"

	"repro/internal/metastep"
)

// Tag enumerates cell kinds.
type Tag uint8

// Cell tags. tagEnd terminates a column (the paper's '$').
const (
	TagR Tag = iota
	TagW
	TagWSig
	TagPR
	TagSR
	TagC
	tagEnd

	tagBits = 3
)

// String renders the tag as in the paper.
func (t Tag) String() string {
	switch t {
	case TagR:
		return "R"
	case TagW:
		return "W"
	case TagWSig:
		return "W*"
	case TagPR:
		return "PR"
	case TagSR:
		return "SR"
	case TagC:
		return "C"
	case tagEnd:
		return "$"
	default:
		return fmt.Sprintf("Tag(%d)", uint8(t))
	}
}

// Cell is one table entry T(i, j).
type Cell struct {
	Tag Tag
	// Signature counts, valid when Tag == TagWSig:
	Pr int // |pread(m)|
	R  int // |read(m)|
	W  int // |write(m)| + 1, i.e. including the winning write
}

// String renders the cell as in the paper, e.g. "W,PR0R2W3".
func (c Cell) String() string {
	if c.Tag == TagWSig {
		return fmt.Sprintf("W,PR%dR%dW%d", c.Pr, c.R, c.W)
	}
	return c.Tag.String()
}

// Encoding is E_π: the table cells plus their exact bit serialization.
type Encoding struct {
	N       int
	Columns [][]Cell // Columns[i][j] = T(i+1, j+1) in the paper's indexing
	Bits    []byte   // the bitstring; the decoder's only input besides A
	BitLen  int      // exact length of E_π in bits
}

// Encode produces E_π from the constructed metastep set.
func Encode(s *metastep.Set) (*Encoding, error) {
	e := &Encoding{N: s.N(), Columns: make([][]Cell, s.N())}
	for i := 0; i < s.N(); i++ {
		for _, id := range s.Chain(i) {
			m := s.Meta(id)
			cell, err := cellFor(m, i)
			if err != nil {
				return nil, err
			}
			e.Columns[i] = append(e.Columns[i], cell)
		}
	}
	e.Bits, e.BitLen = writeColumns(e.Columns)
	return e, nil
}

// writeColumns serializes the table: each cell as its 3-bit tag, followed
// for the winning write by its signature's three gamma codes, and each
// column closed by tagEnd. ParseBits reads exactly this form back.
func writeColumns(cols [][]Cell) (bits []byte, bitLen int) {
	var w BitWriter
	for _, col := range cols {
		for _, c := range col {
			w.WriteBits(uint64(c.Tag), tagBits)
			if c.Tag == TagWSig {
				w.WriteGamma(uint64(c.Pr) + 1)
				w.WriteGamma(uint64(c.R) + 1)
				w.WriteGamma(uint64(c.W)) // ≥ 1: the winning write
			}
		}
		w.WriteBits(uint64(tagEnd), tagBits)
	}
	return w.Bytes(), w.Len()
}

// cellFor computes T(i, ·) for process i's step in metastep m
// (Figure 2, lines 3-17).
func cellFor(m *metastep.Meta, i int) (Cell, error) {
	switch m.Type {
	case metastep.TypeCrit:
		return Cell{Tag: TagC}, nil
	case metastep.TypeRead:
		if m.PreadOf != metastep.None {
			return Cell{Tag: TagPR}, nil
		}
		return Cell{Tag: TagSR}, nil
	case metastep.TypeWrite:
		if m.Win.Proc == i {
			return Cell{
				Tag: TagWSig,
				Pr:  len(m.Pread),
				R:   len(m.Reads),
				W:   len(m.Writes) + 1,
			}, nil
		}
		for _, s := range m.Writes {
			if s.Proc == i {
				return Cell{Tag: TagW}, nil
			}
		}
		for _, s := range m.Reads {
			if s.Proc == i {
				return Cell{Tag: TagR}, nil
			}
		}
		return Cell{}, fmt.Errorf("encode: process %d not contained in %v", i, m)
	default:
		return Cell{}, fmt.Errorf("encode: unknown metastep type %v", m.Type)
	}
}

// ParseBits reconstructs the table columns from the bitstring alone. The
// decoder uses it as its getStep(E, i, j) primitive; nothing but the bits
// and the process count crosses the boundary. A bitLen that is negative or
// longer than bitstr is an error, and so is an n that is negative or
// larger than bitLen/3 (every column ends in a 3-bit tag): both are
// refused before the column table is sized. So is a signature count
// above n.
func ParseBits(bitstr []byte, bitLen, n int) ([][]Cell, error) {
	if bitLen < 0 || bitLen > 8*len(bitstr) {
		return nil, fmt.Errorf("encode: bit length %d outside [0,%d] for a %d-byte bitstring", bitLen, 8*len(bitstr), len(bitstr))
	}
	if n < 0 || n > bitLen/tagBits {
		return nil, fmt.Errorf("encode: %d columns outside [0,%d] for %d bits (each column ends in a %d-bit tag)", n, bitLen/tagBits, bitLen, tagBits)
	}
	r := NewBitReader(bitstr, bitLen)
	cols := make([][]Cell, n)
	for i := 0; i < n; i++ {
		for {
			raw, err := r.ReadBits(tagBits)
			if err != nil {
				return nil, fmt.Errorf("encode: column %d: %w", i, err)
			}
			tag := Tag(raw)
			if tag == tagEnd {
				break
			}
			cell := Cell{Tag: tag}
			if tag == TagWSig {
				pr, err := r.ReadGamma()
				if err != nil {
					return nil, fmt.Errorf("encode: column %d signature: %w", i, err)
				}
				rd, err := r.ReadGamma()
				if err != nil {
					return nil, fmt.Errorf("encode: column %d signature: %w", i, err)
				}
				wr, err := r.ReadGamma()
				if err != nil {
					return nil, fmt.Errorf("encode: column %d signature: %w", i, err)
				}
				// A metastep holds at most n processes, so no count exceeds n.
				if pr-1 > uint64(n) || rd-1 > uint64(n) || wr > uint64(n) {
					return nil, fmt.Errorf("encode: column %d: signature counts %d, %d, %d exceed %d processes", i, pr-1, rd-1, wr, n)
				}
				cell.Pr, cell.R, cell.W = int(pr-1), int(rd-1), int(wr)
			}
			if tag > tagEnd {
				return nil, fmt.Errorf("encode: column %d: invalid tag %d", i, raw)
			}
			cols[i] = append(cols[i], cell)
		}
	}
	if r.Pos() != bitLen {
		return nil, fmt.Errorf("encode: %d trailing bits after %d columns", bitLen-r.Pos(), n)
	}
	return cols, nil
}

// String renders E_π in the paper's human-readable form: columns separated
// by '$', cells by '#'.
func (e *Encoding) String() string {
	var b strings.Builder
	for i, col := range e.Columns {
		if i > 0 {
			b.WriteByte('$')
		}
		for j, c := range col {
			if j > 0 {
				b.WriteByte('#')
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}
