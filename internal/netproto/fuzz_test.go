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
// transport error — never a panic, never an unbounded allocation. The same
// stream also goes through the reuse path the server runs — ReadFrameBuf
// into one dirty buffer, DecodeRequestInto one dirty Request — which must
// agree with fresh decodes frame for frame and leave nothing of an earlier
// frame behind.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: []byte("key"), Value: []byte("value")}))
	f.Add(AppendRequest(nil, &Request{Op: OpScan, ID: 2, Start: []byte("a"), End: []byte("z"), Tsq: 7}))
	f.Add(AppendRequest(nil, &Request{Op: OpBatch, ID: 3, Ops: []BatchOp{
		{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Delete: true},
	}}))
	f.Add(AppendRequest(nil, &Request{Op: OpCheckpoint, ID: 4, Shard: 3}))
	f.Add(AppendRequest(nil, &Request{Op: OpTail, ID: 5, Shard: 1, Tsq: 1 << 40}))
	f.Add(AppendRequest(nil, &Request{Op: OpPromote, ID: 6}))
	f.Add(AppendRequest(AppendRequest(nil, &Request{Op: OpBatch, ID: 7, Ops: []BatchOp{
		{Key: []byte("long key"), Value: []byte("long value")},
	}}), &Request{Op: OpGet, ID: 8, Key: []byte("k")})) // a batch, then a Get into the same buffer
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})             // undersized payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0}) // oversized declaration
	f.Add([]byte("PUT alpha one\n"))               // text, not frames
	f.Fuzz(func(t *testing.T, data []byte) {
		r, rr := bytes.NewReader(data), bytes.NewReader(data)
		buf := bytes.Repeat([]byte{0xa5}, 32)
		reused := Request{Op: OpBatch, Shard: 9, ID: 9, Key: []byte("stale"), Value: []byte("stale"),
			Ops: []BatchOp{{Key: []byte("stale")}}, Start: []byte("stale"), End: []byte("stale"), Tsq: 9}
		for {
			typ, id, body, err := ReadFrame(r, 1<<20)
			rtyp, rid, rbody, rerr := ReadFrameBuf(rr, 1<<20, &buf)
			if !reflect.DeepEqual(err, rerr) || typ != rtyp || id != rid || !bytes.Equal(body, rbody) {
				t.Fatalf("ReadFrameBuf on a reused buffer = (%d, %d, %x, %v), ReadFrame (%d, %d, %x, %v)",
					rtyp, rid, rbody, rerr, typ, id, body, err)
			}
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
			rerr = DecodeRequestInto(&reused, rtyp, rid, rbody)
			if !reflect.DeepEqual(err, rerr) {
				t.Fatalf("DecodeRequestInto = %v, DecodeRequest %v", rerr, err)
			}
			if err != nil {
				var de *DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("untyped DecodeRequest error: %v", err)
				}
				continue
			}
			if !reflect.DeepEqual(req, &reused) {
				t.Fatalf("decoding into a used Request left %+v, a fresh decode is %+v", reused, *req)
			}
			// A decodable request must re-encode to a decodable equal.
			again, err := DecodeRequest(typ, id, AppendRequest(nil, req)[HeaderSize:])
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
		// Decoding into a used Response must leave nothing of the last one.
		reused := Response{Code: CodeRows, ID: 9, Ts: 9, Value: []byte("stale"),
			Rows: []Row{{Key: []byte("stale")}}, Total: 9, Errno: ErrnoAuth, Msg: "stale", Stats: []Stat{{Name: "stale"}}}
		if err := DecodeResponseInto(&reused, typ, 1, body); err != nil || !reflect.DeepEqual(resp, &reused) {
			t.Fatalf("decoding into a used Response left %+v (%v), a fresh decode is %+v", reused, err, *resp)
		}
	})
}
