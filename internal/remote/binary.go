package remote

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// RSB1 is the body framing of every batch and blob endpoint. A request
// declares it in Content-Type (any other type is refused with 415 before
// the body is read) and every record-list reply carries it; gzip, when
// declared through Content-Encoding, wraps the framing in both directions.
//
// The framing, inside the optional gzip layer:
//
//	magic "RSB1", then per record:
//	  uvarint(len(key))   key bytes
//	  uvarint(len(value)) value bytes
//
// Key-only batches (mget/mhas requests, mhas replies) are the same framing
// with zero-length values. Values are the store's canonical JSON payloads
// or opaque trace blobs, carried verbatim — no quoting, escaping, or
// per-record JSON parse — so a 256-key mget reply is one sequential scan.
const binaryContentType = "application/x-rsbin"

// binaryMagic starts every binary batch body; a framing mismatch fails on
// the first four bytes instead of producing garbage records.
var binaryMagic = [4]byte{'R', 'S', 'B', '1'}

// maxBinaryRecordBytes bounds one decoded key or value.
const maxBinaryRecordBytes = 64 << 20

// errBadMagic reports a body that does not start with the binary magic.
var errBadMagic = errors.New("remote: binary batch body lacks RSB1 magic")

// binaryEncoder writes framed records through a pooled buffered writer
// and, for a gzipped body, a pooled compressor. Flush must be called (and
// the encoder released) before the underlying writer is closed.
type binaryEncoder struct {
	bw     *bufio.Writer
	zw     *gzip.Writer // nil for an uncompressed body
	varbuf [binary.MaxVarintLen64]byte
	err    error
}

// newBinaryEncoder starts a binary body on w, writing the magic; gz
// compresses the whole body.
func newBinaryEncoder(w io.Writer, gz bool) *binaryEncoder {
	e := &binaryEncoder{}
	if gz {
		e.zw = getGzipWriter(w)
		w = e.zw
	}
	e.bw = getBufioWriter(w)
	_, e.err = e.bw.Write(binaryMagic[:])
	return e
}

// writeChunk writes one uvarint-length-prefixed byte string.
//
//repro:hotpath
func (e *binaryEncoder) writeChunk(b []byte) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.varbuf[:], uint64(len(b)))
	if _, e.err = e.bw.Write(e.varbuf[:n]); e.err != nil {
		return
	}
	_, e.err = e.bw.Write(b)
}

// Record appends one key/value record; val may be nil for key-only batches.
//
//repro:hotpath
func (e *binaryEncoder) Record(key string, val []byte) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.varbuf[:], uint64(len(key)))
	if _, e.err = e.bw.Write(e.varbuf[:n]); e.err != nil {
		return
	}
	if _, e.err = e.bw.WriteString(key); e.err != nil {
		return
	}
	e.writeChunk(val)
}

// Flush completes the body, returning the first error hit anywhere in the
// encode, and releases the pooled writers. The encoder must not be used
// afterwards.
func (e *binaryEncoder) Flush() error {
	err := e.err
	if flushErr := e.bw.Flush(); err == nil {
		err = flushErr
	}
	putBufioWriter(e.bw)
	e.bw = nil
	if e.zw != nil {
		if closeErr := e.zw.Close(); err == nil {
			err = closeErr
		}
		putGzipWriter(e.zw)
		e.zw = nil
	}
	return err
}

// binaryDecoder reads framed records through a pooled buffered reader
// and, for a gzipped body, a pooled decompressor.
type binaryDecoder struct {
	br *bufio.Reader
	zr *gzip.Reader // nil for an uncompressed body
}

// newBinaryDecoder checks the magic and returns a decoder over r; gz
// decompresses the body first.
func newBinaryDecoder(r io.Reader, gz bool) (*binaryDecoder, error) {
	d := &binaryDecoder{}
	if gz {
		zr, err := getGzipReader(r)
		if err != nil {
			return nil, fmt.Errorf("remote: opening gzip body: %w", err)
		}
		d.zr, r = zr, zr
	}
	d.br = getBufioReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(d.br, magic[:]); err != nil || magic != binaryMagic {
		d.Close()
		if err != nil {
			return nil, fmt.Errorf("remote: reading binary magic: %w", err)
		}
		return nil, errBadMagic
	}
	return d, nil
}

// readChunk reads one uvarint-length-prefixed byte string into a fresh
// slice (the caller retains it). A nil slice is returned for length zero.
//
//repro:hotpath
func (d *binaryDecoder) readChunk() ([]byte, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return nil, err
	}
	if n > maxBinaryRecordBytes {
		return nil, errRecordTooBig(n)
	}
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.br, b); err != nil {
		return nil, errTruncatedRecord(err)
	}
	return b, nil
}

// Cold error constructors for the decode path: formatting allocates, and
// each of these ends the batch anyway.

//repro:hotpath-ok cold error path: an oversized record aborts the batch
func errRecordTooBig(n uint64) error {
	return fmt.Errorf("remote: binary record of %d bytes exceeds cap", n)
}

//repro:hotpath-ok cold error path: a truncated record aborts the batch
func errTruncatedRecord(err error) error {
	return fmt.Errorf("remote: truncated binary record: %w", err)
}

//repro:hotpath-ok cold error path: a broken record aborts the batch
func errBadRecord(kb []byte, err error) error {
	return fmt.Errorf("remote: binary record for key %q: %w", kb, err)
}

// Next returns the next record, or ok=false at a clean end of stream. The
// returned val is nil for key-only records.
//
//repro:hotpath
func (d *binaryDecoder) Next() (key string, val []byte, ok bool, err error) {
	kb, err := d.readChunk()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return "", nil, false, nil // clean end between records
		}
		return "", nil, false, err
	}
	val, err = d.readChunk()
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // a key without its value length
		}
		return "", nil, false, errBadRecord(kb, err)
	}
	return retainKey(kb), val, true, nil
}

// retainKey materializes a decoded key as an immutable string.
//
//repro:hotpath-ok audited single allocation: the one []byte→string copy per decoded record; keys outlive the read buffer
func retainKey(kb []byte) string { return string(kb) }

// each calls fn on every remaining record, stopping at the first decode
// or fn error.
func (d *binaryDecoder) each(fn func(key string, val []byte) error) error {
	for {
		k, v, more, err := d.Next()
		if err != nil || !more {
			return err
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
}

// Close releases the pooled readers. The decoder must not be used
// afterwards.
func (d *binaryDecoder) Close() {
	putBufioReader(d.br)
	d.br = nil
	if d.zr != nil {
		putGzipReader(d.zr)
		d.zr = nil
	}
}
