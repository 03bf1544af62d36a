package remote

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// fuzzRecord is one record the RSB1 reader returned.
type fuzzRecord struct {
	k string
	v []byte
}

// decodeAll reads every record of body, returning the records read before
// the first error along with it.
func decodeAll(body []byte, gz bool) ([]fuzzRecord, error) {
	dec, err := newBinaryDecoder(bytes.NewReader(body), gz)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	var recs []fuzzRecord
	err = dec.each(func(k string, v []byte) error {
		recs = append(recs, fuzzRecord{k, v})
		return nil
	})
	return recs, err
}

// maxCutCheckBytes bounds the re-encoded streams whose every prefix the
// fuzz target decodes, so one input costs at most a few thousand decodes.
const maxCutCheckBytes = 2048

// FuzzBinaryDecoder feeds arbitrary bodies to the RSB1 reader, plain or
// gzipped (the second argument). The seed corpus in
// testdata/fuzz/FuzzBinaryDecoder holds valid streams in both forms, cut
// ones, and a body that claims a 64 MiB record. Whatever the input:
//
//   - the reader returns without panicking;
//   - the records it returns hold no more bytes than the framing it read
//     (the body itself, or the body's decompressed bytes);
//   - when it accepts the body, the records re-encoded as a plain stream
//     and cut anywhere but a record boundary are an error, and a cut at a
//     boundary decodes to exactly the records before it.
func FuzzBinaryDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, gz bool) {
		recs, err := decodeAll(body, gz)
		framing := len(body)
		if gz {
			// The reader can only have seen what gzip inflates; a body that
			// stops inflating partway bounds it by the part that inflated.
			if zr, zerr := gzip.NewReader(bytes.NewReader(body)); zerr == nil {
				plain, _ := io.ReadAll(zr)
				framing = len(plain)
			} else {
				framing = 0
			}
		}
		held := 0
		for _, r := range recs {
			held += len(r.k) + len(r.v)
		}
		if held > framing {
			t.Fatalf("gz=%v: %d records hold %d bytes, more than the %d framing bytes read", gz, len(recs), held, framing)
		}
		if err != nil {
			return
		}

		var stream bytes.Buffer
		enc := newBinaryEncoder(&stream, false)
		boundary := map[int]int{len(binaryMagic): 0} // prefix length → records before it
		for i, r := range recs {
			enc.Record(r.k, r.v)
			if err := enc.bw.Flush(); err != nil {
				t.Fatal(err)
			}
			boundary[stream.Len()] = i + 1
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		if stream.Len() > maxCutCheckBytes {
			return
		}
		full := stream.Bytes()
		for cut := 0; cut <= len(full); cut++ {
			got, err := decodeAll(full[:cut], false)
			want, atBoundary := boundary[cut]
			switch {
			case atBoundary && err != nil:
				t.Fatalf("cut at record boundary %d of %d: %v", cut, len(full), err)
			case atBoundary && len(got) != want:
				t.Fatalf("cut at record boundary %d of %d: %d records, want %d", cut, len(full), len(got), want)
			case !atBoundary && err == nil:
				t.Fatalf("stream cut at byte %d of %d (inside a record) decoded without error as %d records", cut, len(full), len(got))
			}
		}
	})
}
