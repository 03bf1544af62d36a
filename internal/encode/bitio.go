package encode

import (
	"errors"
	"fmt"
	"math/bits"
)

// BitWriter accumulates a bitstring MSB-first. Theorem 6.2 is a statement
// about bits, so the encoding length is measured exactly, not in bytes or
// characters.
type BitWriter struct {
	buf  []byte
	used int // bits used in the final byte (0..7); 0 means byte-aligned
	n    int // total bits written
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.n }

// Bytes returns the accumulated bitstring, zero-padded to a byte boundary.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	return out
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint) {
	if w.used == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.used)
	}
	w.used = (w.used + 1) % 8
	w.n++
}

// WriteBits appends the low `width` bits of v, most significant first.
func (w *BitWriter) WriteBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(uint(v>>i) & 1)
	}
}

// WriteGamma appends the Elias gamma code of v ≥ 1: for a value with
// bit-length L, L-1 zeros followed by the L bits of v. Length 2L-1 =
// O(log v) bits, self-delimiting — which is what lets the encoding drop the
// paper's '#' separators without losing parseability.
func (w *BitWriter) WriteGamma(v uint64) {
	if v == 0 {
		panic("encode: WriteGamma(0)")
	}
	l := bits.Len64(v)
	for i := 0; i < l-1; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(v, l)
}

// ErrOutOfBits is returned when a read runs past the end of the bitstring.
var ErrOutOfBits = errors.New("encode: bitstring exhausted")

// BitReader consumes a bitstring produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int // bit position
	n   int // total readable bits
}

// NewBitReader reads up to nbits bits from buf (nbits ≤ 8*len(buf)).
func NewBitReader(buf []byte, nbits int) *BitReader {
	if nbits > 8*len(buf) {
		panic(fmt.Sprintf("encode: NewBitReader: nbits=%d exceeds buffer of %d bits", nbits, 8*len(buf)))
	}
	return &BitReader{buf: buf, n: nbits}
}

// Pos returns the current bit position.
func (r *BitReader) Pos() int { return r.pos }

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= r.n {
		return 0, ErrOutOfBits
	}
	b := (r.buf[r.pos/8] >> (7 - r.pos%8)) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits consumes `width` bits, most significant first.
func (r *BitReader) ReadBits(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

// ReadGamma consumes an Elias gamma code and returns its value (≥ 1).
func (r *BitReader) ReadGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 63 {
			return 0, fmt.Errorf("encode: gamma code too long at bit %d", r.pos)
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<zeros | rest, nil
}
