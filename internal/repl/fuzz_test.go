package repl

import (
	"bytes"
	"runtime"
	"testing"

	"elsm/internal/sgx"
)

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what parsing n hostile bytes may allocate: a small multiple
// of n (a record's 25 encoded WAL bytes become an 88-byte record.Record in a
// slice that doubles as it grows; readFrame's buffer doubles too) plus slack
// for the fixed parts.
func allocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }

// FuzzDecodeFrame: the frame-body parser faces the host. It must never
// panic, never allocate beyond a multiple of its input, and accept only the
// one encoding of a frame — what it accepts re-encodes to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, c := range frameCases() {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var frame *groupFrame
		var err error
		if got, bound := allocated(func() { frame, err = decodeFrame(body) }), allocBound(len(body)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(body), got, bound)
		}
		if err != nil {
			return
		}
		if again := reencode(frame); !bytes.Equal(again, body) {
			t.Fatalf("accepted body is not what its frame encodes to:\n in  %x\n out %x", body, again)
		}
	})
}

// FuzzReadFrame: the stream framing under the parser. Whatever the bytes,
// reading ends in a frame or an error, allocates in proportion to what
// actually arrived rather than to a declared length, and a frame that was
// written reads back identically.
func FuzzReadFrame(f *testing.F) {
	for _, c := range frameCases() {
		var stream bytes.Buffer
		writeFrame(&stream, c.body, sgx.Report{})
		f.Add(stream.Bytes())
	}
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 1, 2, 3}) // declares 64 MB, delivers three bytes
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}) // declares 4 GB, delivers three bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		var body []byte
		var rep sgx.Report
		var err error
		if got, bound := allocated(func() { body, rep, err = readFrame(bytes.NewReader(data)) }), allocBound(len(data)); got > bound {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := writeFrame(&again, body, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), data[:again.Len()]) {
			t.Fatal("a frame that read cleanly does not write back to the bytes it came from")
		}
	})
}
