package netproto

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzReadFrame feeds arbitrary byte streams through the frame reader and
// request decoder the way a server's reader goroutine consumes a
// connection: every fault must surface as a typed, recoverable error or a
// transport error — never a panic, never an unbounded allocation.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: []byte("key"), Value: []byte("value")}))
	f.Add(AppendRequest(nil, &Request{Op: OpScan, ID: 2, Start: []byte("a"), End: []byte("z"), Tsq: 7}))
	f.Add(AppendRequest(nil, &Request{Op: OpBatch, ID: 3, Ops: []BatchOp{
		{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Delete: true},
	}}))
	f.Add(AppendRequest(nil, &Request{Op: OpCheckpoint, ID: 4, Shard: 3}))
	f.Add(AppendRequest(nil, &Request{Op: OpTail, ID: 5, Shard: 1, Tsq: 1 << 40}))
	f.Add(AppendRequest(nil, &Request{Op: OpPromote, ID: 6}))
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})             // undersized payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0}) // oversized declaration
	f.Add([]byte("PUT alpha one\n"))               // text, not frames
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, id, body, err := ReadFrame(r, 1<<20)
			if err != nil {
				var fe *FrameError
				if errors.As(err, &fe) {
					continue // recoverable: keep consuming the stream
				}
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				t.Fatalf("untyped ReadFrame error: %v", err)
			}
			req, err := DecodeRequest(typ, id, body)
			if err != nil {
				var de *DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("untyped DecodeRequest error: %v", err)
				}
				continue
			}
			// A decodable request must re-encode to a decodable equal.
			again, err := DecodeRequest(typ, id, AppendRequest(nil, req)[4+frameOverhead:])
			if err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("re-encode round trip diverged: %+v vs %+v", req, again)
			}
		}
	})
}

// FuzzDecodeResponse hardens the client-side decoder the same way.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(uint8(CodeOK), AppendOK(nil, 1))
	f.Add(uint8(CodeValue), AppendValue(nil, 2, []byte("v")))
	f.Add(uint8(CodeRows), AppendRows(nil, []Row{{Key: []byte("k"), Ts: 1, Value: []byte("v")}}))
	f.Add(uint8(CodeErr), AppendErr(nil, ErrnoAuth, "bad"))
	f.Add(uint8(CodeStats), AppendStats(nil, []Stat{{Name: "g", Value: 1}}))
	f.Add(uint8(CodeChunk), []byte("opaque stream bytes"))
	f.Add(uint8(CodeErr), AppendErr(nil, ErrnoBehind, "behind"))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		resp, err := DecodeResponse(typ, 1, body)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("untyped DecodeResponse error: %v", err)
			}
			return
		}
		if resp.Code != Code(typ) || resp.ID != 1 {
			t.Fatalf("decoded frame identity mangled: %+v", resp)
		}
	})
}
