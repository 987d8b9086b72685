package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// roundTripReq encodes req, reads it back through ReadFrame and decodes it.
func roundTripReq(t *testing.T, req *Request) *Request {
	t.Helper()
	frame := AppendRequest(nil, req)
	typ, id, body, err := ReadFrame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if id != req.ID {
		t.Fatalf("id = %d, want %d", id, req.ID)
	}
	got, err := DecodeRequest(typ, id, body)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpPut, ID: 1, Key: []byte("k"), Value: []byte("v")},
		{Op: OpPut, ID: 2, Key: []byte(""), Value: []byte("binary\x00\xff value")},
		{Op: OpGet, ID: 3, Key: []byte("some key")},
		{Op: OpDel, ID: 4, Key: []byte("gone")},
		{Op: OpBatch, ID: 5, Ops: []BatchOp{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("b"), Delete: true},
			{Key: []byte("c"), Value: bytes.Repeat([]byte("x"), 4096)},
		}},
		{Op: OpScan, ID: 6, Start: []byte("a"), End: []byte("z"), Tsq: 42},
		{Op: OpSync, ID: 7},
		{Op: OpStats, ID: 8},
		{Op: OpPing, ID: 9},
		{Op: OpCheckpoint, ID: 10, Shard: 3},
		{Op: OpTail, ID: 11, Shard: 2, Tsq: 1 << 40},
		{Op: OpPromote, ID: 12},
	}
	for _, req := range reqs {
		got := roundTripReq(t, req)
		if !req.Op.Known() {
			t.Fatalf("%s is not a known op", req.Op)
		}
		if got.Op != req.Op || got.ID != req.ID || got.Tsq != req.Tsq || got.Shard != req.Shard {
			t.Fatalf("%s: got %+v, want %+v", req.Op, got, req)
		}
		if !bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Value, req.Value) ||
			!bytes.Equal(got.Start, req.Start) || !bytes.Equal(got.End, req.End) {
			t.Fatalf("%s: byte fields differ: got %+v, want %+v", req.Op, got, req)
		}
		if len(got.Ops) != len(req.Ops) {
			t.Fatalf("%s: %d ops, want %d", req.Op, len(got.Ops), len(req.Ops))
		}
		for i := range got.Ops {
			if !reflect.DeepEqual(got.Ops[i], req.Ops[i]) {
				t.Fatalf("%s op %d: got %+v, want %+v", req.Op, i, got.Ops[i], req.Ops[i])
			}
		}
	}
}

// TestReplicationVerbsDoNotGrowRequest: every Put and Get allocates a
// Request, so the replication verbs' payload lives in fields and padding
// that were already there, and a shard that cannot be one is malformed.
func TestReplicationVerbsDoNotGrowRequest(t *testing.T) {
	type parentRequest struct {
		Op         Op
		ID         uint64
		Key, Value []byte
		Ops        []BatchOp
		Start, End []byte
		Tsq        uint64
	}
	if got, want := unsafe.Sizeof(Request{}), unsafe.Sizeof(parentRequest{}); got != want {
		t.Fatalf("Request is %d bytes, %d without the replication verbs", got, want)
	}
	body := appendUvarint(nil, math.MaxUint32+1)
	if _, err := DecodeRequest(uint8(OpCheckpoint), 1, body); err == nil {
		t.Fatal("a shard above 32 bits decoded")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		code Code
		body []byte
		want Response
	}{
		{CodeOK, AppendOK(nil, 77), Response{Ts: 77}},
		{CodeValue, AppendValue(nil, 9, []byte("val")), Response{Ts: 9, Value: []byte("val")}},
		{CodeNotFound, nil, Response{}},
		{CodeRows, AppendRows(nil, []Row{{Key: []byte("k"), Ts: 3, Value: []byte("v")}}),
			Response{Rows: []Row{{Key: []byte("k"), Ts: 3, Value: []byte("v")}}}},
		{CodeScanEnd, appendUvarint(nil, 12), Response{Total: 12}},
		{CodeErr, AppendErr(nil, ErrnoAuth, "tampered"), Response{Errno: ErrnoAuth, Msg: "tampered"}},
		{CodeBusy, nil, Response{}},
		{CodeStats, AppendStats(nil, []Stat{{Name: "net_connections", Value: 4}}),
			Response{Stats: []Stat{{Name: "net_connections", Value: 4}}}},
		{CodePong, nil, Response{}},
		{CodeChunk, []byte("opaque\x00bytes"), Response{Value: []byte("opaque\x00bytes")}},
		{CodeErr, AppendErr(nil, ErrnoBehind, "behind"), Response{Errno: ErrnoBehind, Msg: "behind"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, uint8(c.code), 5, c.body); err != nil {
			t.Fatal(err)
		}
		typ, id, body, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("code %d: ReadFrame: %v", c.code, err)
		}
		got, err := DecodeResponse(typ, id, body)
		if err != nil {
			t.Fatalf("code %d: DecodeResponse: %v", c.code, err)
		}
		c.want.Code = c.code
		c.want.ID = 5
		if !reflect.DeepEqual(*got, c.want) {
			t.Fatalf("code %d: got %+v, want %+v", c.code, *got, c.want)
		}
	}
}

func TestOversizedFrameRecoverable(t *testing.T) {
	// A frame declaring MaxFrame+1 bytes: ReadFrame must salvage type+id,
	// discard the payload and leave the stream positioned at the next
	// frame.
	var buf bytes.Buffer
	n := MaxFrame + 1
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(n))
	buf.Write(hdr[:])
	payload := make([]byte, n)
	payload[0] = uint8(OpPut)
	binary.BigEndian.PutUint64(payload[1:9], 99)
	buf.Write(payload)
	// A healthy frame follows.
	WriteFrame(&buf, uint8(OpPing), 100, nil)

	_, _, _, err := ReadFrame(&buf, 0)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FrameError", err)
	}
	if fe.ID != 99 || fe.Type != uint8(OpPut) || fe.Size != n {
		t.Fatalf("salvaged %+v, want id 99 / type PUT / size %d", fe, n)
	}
	typ, id, _, err := ReadFrame(&buf, 0)
	if err != nil || typ != uint8(OpPing) || id != 100 {
		t.Fatalf("stream lost sync after oversized frame: typ %d id %d err %v", typ, id, err)
	}
}

func TestUndersizedFrameRecoverable(t *testing.T) {
	// Payload length below the fixed prefix: recoverable, id unknown.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.Write([]byte{1, 2, 3})
	WriteFrame(&buf, uint8(OpPing), 7, nil)

	_, _, _, err := ReadFrame(&buf, 0)
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FrameError", err)
	}
	if typ, id, _, err := ReadFrame(&buf, 0); err != nil || typ != uint8(OpPing) || id != 7 {
		t.Fatalf("stream lost sync after undersized frame: typ %d id %d err %v", typ, id, err)
	}
}

func TestTruncatedStreamIsTransportError(t *testing.T) {
	frame := AppendRequest(nil, &Request{Op: OpPut, ID: 1, Key: []byte("k"), Value: []byte("v")})
	for cut := 1; cut < len(frame); cut++ {
		_, _, _, err := ReadFrame(bytes.NewReader(frame[:cut]), 0)
		if err == nil {
			t.Fatalf("cut %d: no error", cut)
		}
		var fe *FrameError
		if errors.As(err, &fe) {
			t.Fatalf("cut %d: truncated stream misread as recoverable FrameError", cut)
		}
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: err = %v, want EOF-ish", cut, err)
		}
	}
}

func TestGarbageBodiesDrawTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		typ  uint8
		body []byte
	}{
		{"unknown opcode", 0x7f, nil},
		{"put missing value", uint8(OpPut), appendBytes(nil, []byte("k"))},
		{"put length overflow", uint8(OpPut), appendUvarint(nil, 1<<40)},
		{"batch kind garbage", uint8(OpBatch), append(appendUvarint(nil, 1), 9)},
		{"batch count abuse", uint8(OpBatch), appendUvarint(nil, 1<<32)},
		{"scan missing tsq", uint8(OpScan), appendBytes(appendBytes(nil, []byte("a")), []byte("z"))},
		{"trailing bytes", uint8(OpPing), []byte{1}},
		{"opcode past the last", uint8(OpPromote) + 1, nil},
		{"tail missing cursor", uint8(OpTail), appendUvarint(nil, 1)},
	}
	for _, c := range cases {
		_, err := DecodeRequest(c.typ, 1, c.body)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err = %v, want *DecodeError", c.name, err)
		}
		if !strings.Contains(err.Error(), "netproto: malformed") {
			t.Fatalf("%s: error %q missing typed prefix", c.name, err)
		}
	}
}

func TestBinarySniffByte(t *testing.T) {
	// Any frame below MaxFrame starts 0x00, so text typed at the port — its
	// first byte printable — declares a length no server accepts.
	frame := AppendRequest(nil, &Request{Op: OpGet, ID: 1, Key: []byte("k")})
	if frame[0] != 0 {
		t.Fatalf("first frame byte = %#x, want 0x00", frame[0])
	}
}
