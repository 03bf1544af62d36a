package remote

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"sync"
)

// Compressor and buffer pools shared by Client and Server.
//
// A gzip.Writer holds the deflate compressor's ~800 KB of internal state
// and a gzip.Reader ~45 KB of inflate state; allocating them per request
// was, by an order of magnitude, the wire protocol's dominant memory cost
// (BenchmarkRemoteMGet charged ~2.1 MB per 64-key batch, ~1.7 MB of it
// compressor state on the four request/response bodies of one loopback
// round trip). Both types are built to be pooled: Reset rebinds them to a
// new stream with their buffers intact, so steady-state batch traffic
// reuses a handful of compressors fleet-wide instead of churning the GC.

var gzipWriterPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// getGzipWriter returns a pooled gzip writer bound to w. Callers must Close
// it (flushing the stream) before putGzipWriter.
func getGzipWriter(w io.Writer) *gzip.Writer {
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw
}

// putGzipWriter returns a closed gzip writer to the pool.
func putGzipWriter(zw *gzip.Writer) {
	zw.Reset(io.Discard) // drop the reference to the caller's stream
	gzipWriterPool.Put(zw)
}

var gzipReaderPool = sync.Pool{
	New: func() any { return new(gzip.Reader) },
}

// getGzipReader returns a pooled gzip reader bound to r, or an error if r
// does not start a valid gzip stream.
func getGzipReader(r io.Reader) (*gzip.Reader, error) {
	zr := gzipReaderPool.Get().(*gzip.Reader)
	if err := zr.Reset(r); err != nil {
		gzipReaderPool.Put(zr)
		return nil, err
	}
	return zr, nil
}

// putGzipReader returns a gzip reader to the pool.
func putGzipReader(zr *gzip.Reader) {
	gzipReaderPool.Put(zr)
}

// pooledGzipReadCloser adapts a pooled gzip reader into the io.ReadCloser
// surface requestBody hands to the JSON point handlers: Close returns the
// reader to the pool exactly once.
type pooledGzipReadCloser struct {
	zr     *gzip.Reader
	closed bool
}

func (p *pooledGzipReadCloser) Read(b []byte) (int, error) {
	if p.closed {
		return 0, io.EOF
	}
	return p.zr.Read(b)
}

func (p *pooledGzipReadCloser) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.zr.Close()
	putGzipReader(p.zr)
	return err
}

// bufPool holds request-body staging buffers (client side: the compressed
// batch body that must be replayable across retries).
var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// getBuf borrows an empty byte buffer.
func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// putBuf returns a buffer to the pool. Oversized buffers are dropped so one
// huge batch does not pin its high-water mark forever.
func putBuf(b *bytes.Buffer) {
	if b.Cap() > 4<<20 {
		return
	}
	bufPool.Put(b)
}

// bufioWriterPool holds the buffered writers the binary codec encodes
// through.
var bufioWriterPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) },
}

func getBufioWriter(w io.Writer) *bufio.Writer {
	bw := bufioWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

func putBufioWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard)
	bufioWriterPool.Put(bw)
}

// bufioReaderPool holds the buffered readers the binary codec decodes
// through.
var bufioReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 32<<10) },
}

func getBufioReader(r io.Reader) *bufio.Reader {
	br := bufioReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putBufioReader(br *bufio.Reader) {
	br.Reset(nil)
	bufioReaderPool.Put(br)
}
