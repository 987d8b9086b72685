// Package netproto is the wire codec of the eLSM network front end: a
// length-prefixed binary protocol with per-connection request pipelining.
//
// Every frame is
//
//	uint32  payload length (big endian)
//	uint8   type — a request Op or a response Code
//	uint64  request id (big endian)
//	body    type-specific payload
//
// Requests carry a client-chosen id; responses echo it, so a server may
// answer out of order and a client demultiplexes by id. Streaming results
// are multi-frame: any number of CodeRows chunks (SCAN) or CodeChunk chunks
// (the replication streams) followed by one CodeScanEnd terminator (or
// CodeErr), all under the request's id.
//
// The codec is defensive by construction: byte strings are uvarint
// length-prefixed and every decode is bounds-checked, so truncated,
// oversized or garbage frames surface as typed errors (*FrameError,
// *DecodeError) a server can answer without losing framing — ReadFrame
// discards an oversized frame's payload and keeps the connection usable.
package netproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxFrame bounds one frame's payload (type + id + body). Frames declaring
// more are answered with ErrnoFrameTooLarge and their payload is discarded.
const MaxFrame = 16 << 20

// frameOverhead is the fixed payload prefix: 1-byte type + 8-byte id.
const frameOverhead = 1 + 8

// Op is a request opcode.
type Op uint8

const (
	// OpPut writes one key-value pair durably: key, value.
	OpPut Op = iota + 1
	// OpGet reads the latest verified value: key.
	OpGet
	// OpDel writes a tombstone: key.
	OpDel
	// OpBatch applies an atomic multi-op write: count, then per op a
	// kind byte (0 = put, 1 = delete), key and (for puts) value.
	OpBatch
	// OpScan streams the verified range [start, end] at timestamp tsq
	// (0 = latest): start, end, tsq.
	OpScan
	// OpSync is the durability barrier (empty body).
	OpSync
	// OpStats dumps the server's counters (empty body).
	OpStats
	// OpPing is a liveness probe (empty body).
	OpPing
	// OpCheckpoint streams one shard's attested checkpoint as CodeChunk
	// frames: shard.
	OpCheckpoint
	// OpTail streams one shard's attested commit-group frames from the
	// applied frontier tsq as CodeChunk frames, until either side goes
	// away: shard, tsq. ErrnoBehind ends it when tsq has fallen out of the
	// leader's retained log.
	OpTail
	// OpPromote turns a follower into a writable leader and answers CodeOK
	// carrying the new replication epoch (empty body).
	OpPromote

	opEnd // one past the last opcode
)

// Known reports whether o is an opcode of this protocol version: what lets
// a server tell an unknown request from a malformed one.
func (o Op) Known() bool { return o >= OpPut && o < opEnd }

func (o Op) String() string {
	switch o {
	case OpPut:
		return "PUT"
	case OpGet:
		return "GET"
	case OpDel:
		return "DEL"
	case OpBatch:
		return "BATCH"
	case OpScan:
		return "SCAN"
	case OpSync:
		return "SYNC"
	case OpStats:
		return "STATS"
	case OpPing:
		return "PING"
	case OpCheckpoint:
		return "CHECKPOINT"
	case OpTail:
		return "TAIL"
	case OpPromote:
		return "PROMOTE"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Code is a response type.
type Code uint8

const (
	// CodeOK acknowledges a write or barrier: ts.
	CodeOK Code = iota + 0x81
	// CodeValue answers a found GET: ts, value.
	CodeValue
	// CodeNotFound answers a missing GET (empty body).
	CodeNotFound
	// CodeRows is one SCAN chunk: count, then per row key, ts, value.
	CodeRows
	// CodeScanEnd terminates a stream: total row count (SCAN; 0 after a
	// checkpoint or tail).
	CodeScanEnd
	// CodeErr reports a typed failure: errno, message.
	CodeErr
	// CodeBusy is the admission-control load shed: the server refused the
	// request (or, under id 0, the connection) instead of queueing it.
	// Retry later, ideally with backoff.
	CodeBusy
	// CodeStats answers OpStats: count, then per gauge name, value.
	CodeStats
	// CodePong answers OpPing (empty body).
	CodePong
	// CodeChunk is one piece of an opaque byte stream (OpCheckpoint,
	// OpTail): the body is the bytes.
	CodeChunk
)

// Errno classifies a CodeErr response.
type Errno uint16

const (
	// ErrnoGeneric is an uncategorized server-side failure.
	ErrnoGeneric Errno = iota + 1
	// ErrnoMalformed reports an undecodable request body.
	ErrnoMalformed
	// ErrnoFrameTooLarge reports a frame above MaxFrame (payload dropped).
	ErrnoFrameTooLarge
	// ErrnoUnknownOp reports an unrecognized request opcode.
	ErrnoUnknownOp
	// ErrnoAuth reports a verification failure (forged, stale, incomplete
	// or rolled-back data detected) — the authenticated store's fail-stop.
	ErrnoAuth
	// ErrnoReadOnly reports a write against a read-only replica.
	ErrnoReadOnly
	// ErrnoBehind ends an OpTail whose cursor is no longer in the leader's
	// retained log: the follower must re-bootstrap from a checkpoint.
	ErrnoBehind
)

// BatchOp is one operation of an OpBatch request.
type BatchOp struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Row is one verified record of a CodeRows chunk.
type Row struct {
	Key   []byte
	Ts    uint64
	Value []byte
}

// Stat is one gauge of a CodeStats response.
type Stat struct {
	Name  string
	Value uint64
}

// FrameError is a framing-level fault ReadFrame recovered from: the
// declared payload was discarded and the connection remains usable. ID and
// Type are salvaged from the discarded payload when it carried at least the
// fixed prefix, so the server can answer the offending request.
type FrameError struct {
	Size int    // declared payload length
	Type uint8  // salvaged frame type (0 if unavailable)
	ID   uint64 // salvaged request id (0 if unavailable)
}

func (e *FrameError) Error() string {
	return fmt.Sprintf("netproto: oversized frame (%d bytes > %d max)", e.Size, MaxFrame)
}

// DecodeError is a request or response body that failed to decode.
type DecodeError struct {
	What string
}

func (e *DecodeError) Error() string { return "netproto: malformed " + e.What }

// ---------------------------------------------------------------------------
// Frame I/O

// HeaderSize is the length of a frame's fixed prefix: the 4-byte payload
// length, the type byte and the 8-byte id.
const HeaderSize = 4 + frameOverhead

// AppendFrameHeader appends the fixed prefix of a frame whose body is
// bodyLen bytes long; the body follows it.
func AppendFrameHeader(dst []byte, typ uint8, id uint64, bodyLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameOverhead+bodyLen))
	dst = append(dst, typ)
	return binary.BigEndian.AppendUint64(dst, id)
}

// WriteFrame writes one frame. body may be nil.
func WriteFrame(w io.Writer, typ uint8, id uint64, body []byte) error {
	_, err := w.Write(append(AppendFrameHeader(nil, typ, id, len(body)), body...))
	return err
}

// ReadFrame reads one frame into a fresh buffer; see ReadFrameBuf.
func ReadFrame(r io.Reader, max int) (typ uint8, id uint64, body []byte, err error) {
	var buf []byte
	return ReadFrameBuf(r, max, &buf)
}

// ReadFrameBuf reads one frame, returning its type, request id and body.
// The payload lands in *buf, which is grown when it is too short and kept
// for the next call: body aliases *buf and is valid until it is reused.
//
// Recoverable faults — a frame whose declared payload exceeds MaxFrame or
// is too short to carry the fixed prefix — discard the payload and return a
// *FrameError: the stream stays in sync and the caller should answer with
// ErrnoFrameTooLarge/ErrnoMalformed and keep serving. Any other error is a
// transport-level failure (EOF, a torn header) and ends the connection.
func ReadFrameBuf(r io.Reader, max int, buf *[]byte) (typ uint8, id uint64, body []byte, err error) {
	if cap(*buf) < HeaderSize {
		*buf = make([]byte, 0, 512)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if max <= 0 {
		max = MaxFrame
	}
	if n < frameOverhead || n > max {
		fe := &FrameError{Size: n}
		// Salvage the prefix so the fault can be answered under its id,
		// then discard the rest of the declared payload to stay in sync.
		salvage := min(n, frameOverhead)
		pre := (*buf)[:salvage]
		if _, err := io.ReadFull(r, pre); err != nil {
			return 0, 0, nil, err
		}
		if salvage == frameOverhead {
			fe.Type = pre[0]
			fe.ID = binary.BigEndian.Uint64(pre[1:9])
		}
		if _, err := io.CopyN(io.Discard, r, int64(n-salvage)); err != nil {
			return 0, 0, nil, err
		}
		return 0, 0, nil, fe
	}
	if cap(*buf) < n {
		*buf = make([]byte, 0, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return payload[0], binary.BigEndian.Uint64(payload[1:9]), payload[9:n:n], nil
}

// ---------------------------------------------------------------------------
// Body primitives

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, &DecodeError{What: what}
	}
	return v, b[n:], nil
}

func readBytes(b []byte, what string) ([]byte, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, nil, &DecodeError{What: what + " length"}
	}
	rest := b[k:]
	if n > uint64(len(rest)) {
		return nil, nil, &DecodeError{What: what}
	}
	return rest[:n:n], rest[n:], nil
}

// ---------------------------------------------------------------------------
// Requests

// Request is one decoded client request.
type Request struct {
	Op Op
	// Shard is the Checkpoint and Tail payload. It sits in Op's padding:
	// the replication verbs do not grow the struct every Put and Get
	// allocates.
	Shard uint32
	ID    uint64
	Key   []byte // Put, Get, Del
	// Value is the Put payload.
	Value []byte
	// Ops is the Batch payload.
	Ops []BatchOp
	// Start, End, Tsq are the Scan payload (Tsq 0 = latest). Tsq is also
	// Tail's cursor: the stream carries the groups after that timestamp.
	Start, End []byte
	Tsq        uint64
}

// AppendRequest encodes req as one frame appended to dst. The body is
// encoded in place behind a header whose length is patched afterwards.
func AppendRequest(dst []byte, req *Request) []byte {
	start := len(dst)
	dst = AppendFrameHeader(dst, uint8(req.Op), req.ID, 0)
	switch req.Op {
	case OpPut:
		dst = appendBytes(dst, req.Key)
		dst = appendBytes(dst, req.Value)
	case OpGet, OpDel:
		dst = appendBytes(dst, req.Key)
	case OpBatch:
		dst = appendUvarint(dst, uint64(len(req.Ops)))
		for _, op := range req.Ops {
			kind := byte(0)
			if op.Delete {
				kind = 1
			}
			dst = append(dst, kind)
			dst = appendBytes(dst, op.Key)
			if !op.Delete {
				dst = appendBytes(dst, op.Value)
			}
		}
	case OpScan:
		dst = appendBytes(dst, req.Start)
		dst = appendBytes(dst, req.End)
		dst = appendUvarint(dst, req.Tsq)
	case OpCheckpoint:
		dst = appendUvarint(dst, uint64(req.Shard))
	case OpTail:
		dst = appendUvarint(dst, uint64(req.Shard))
		dst = appendUvarint(dst, req.Tsq)
	case OpSync, OpStats, OpPing, OpPromote:
		// empty body
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// maxBatchOps bounds one decoded batch (protocol abuse guard).
const maxBatchOps = 10000

// DecodeRequest decodes a request frame's body into a fresh Request; see
// DecodeRequestInto.
func DecodeRequest(typ uint8, id uint64, body []byte) (*Request, error) {
	req := new(Request)
	if err := DecodeRequestInto(req, typ, id, body); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeRequestInto decodes a request frame's body into req, overwriting
// every field: only the backing array of req.Ops survives, reused by the
// next batch decoded into req. The byte fields alias body. Unknown opcodes
// and malformed bodies return *DecodeError; the caller answers
// ErrnoUnknownOp/ErrnoMalformed and keeps the connection.
func DecodeRequestInto(req *Request, typ uint8, id uint64, body []byte) error {
	ops := req.Ops[:0]
	*req = Request{Op: Op(typ), ID: id}
	var err error
	switch req.Op {
	case OpPut:
		if req.Key, body, err = readBytes(body, "put key"); err != nil {
			return err
		}
		if req.Value, body, err = readBytes(body, "put value"); err != nil {
			return err
		}
	case OpGet, OpDel:
		if req.Key, body, err = readBytes(body, "key"); err != nil {
			return err
		}
	case OpBatch:
		var n uint64
		if n, body, err = readUvarint(body, "batch count"); err != nil {
			return err
		}
		if n > maxBatchOps {
			return &DecodeError{What: fmt.Sprintf("batch count %d (max %d)", n, maxBatchOps)}
		}
		if n > 0 {
			if uint64(cap(ops)) < n {
				ops = make([]BatchOp, 0, n)
			}
			req.Ops = ops
		}
		for i := uint64(0); i < n; i++ {
			if len(body) == 0 {
				return &DecodeError{What: "batch op kind"}
			}
			kind := body[0]
			body = body[1:]
			if kind > 1 {
				return &DecodeError{What: "batch op kind"}
			}
			var op BatchOp
			op.Delete = kind == 1
			if op.Key, body, err = readBytes(body, "batch key"); err != nil {
				return err
			}
			if !op.Delete {
				if op.Value, body, err = readBytes(body, "batch value"); err != nil {
					return err
				}
			}
			req.Ops = append(req.Ops, op)
		}
	case OpScan:
		if req.Start, body, err = readBytes(body, "scan start"); err != nil {
			return err
		}
		if req.End, body, err = readBytes(body, "scan end"); err != nil {
			return err
		}
		if req.Tsq, body, err = readUvarint(body, "scan tsq"); err != nil {
			return err
		}
	case OpCheckpoint, OpTail:
		var shard uint64
		if shard, body, err = readUvarint(body, "shard"); err != nil {
			return err
		}
		if shard > math.MaxUint32 {
			return &DecodeError{What: "shard"}
		}
		req.Shard = uint32(shard)
		if req.Op == OpTail {
			if req.Tsq, body, err = readUvarint(body, "tail cursor"); err != nil {
				return err
			}
		}
	case OpSync, OpStats, OpPing, OpPromote:
		// empty body
	default:
		return &DecodeError{What: fmt.Sprintf("opcode %d", typ)}
	}
	if len(body) != 0 {
		return &DecodeError{What: "trailing bytes"}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Responses

// Response is one decoded server response frame. Exactly the fields implied
// by Code are meaningful.
type Response struct {
	Code  Code
	ID    uint64
	Ts    uint64 // OK, Value
	Value []byte // Value, Chunk
	Rows  []Row  // Rows
	Total uint64 // ScanEnd
	Errno Errno  // Err
	Msg   string // Err
	Stats []Stat // Stats
}

// AppendOK encodes a CodeOK body.
func AppendOK(dst []byte, ts uint64) []byte { return appendUvarint(dst, ts) }

// AppendValue encodes a CodeValue body.
func AppendValue(dst []byte, ts uint64, value []byte) []byte {
	dst = appendUvarint(dst, ts)
	return appendBytes(dst, value)
}

// AppendRows encodes a CodeRows body.
func AppendRows(dst []byte, rows []Row) []byte {
	dst = appendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = appendBytes(dst, r.Key)
		dst = appendUvarint(dst, r.Ts)
		dst = appendBytes(dst, r.Value)
	}
	return dst
}

// AppendErr encodes a CodeErr body.
func AppendErr(dst []byte, errno Errno, msg string) []byte {
	dst = appendUvarint(dst, uint64(errno))
	return appendBytes(dst, []byte(msg))
}

// AppendStats encodes a CodeStats body.
func AppendStats(dst []byte, stats []Stat) []byte {
	dst = appendUvarint(dst, uint64(len(stats)))
	for _, st := range stats {
		dst = appendBytes(dst, []byte(st.Name))
		dst = appendUvarint(dst, st.Value)
	}
	return dst
}

// DecodeResponse decodes a response frame's body into a fresh Response; see
// DecodeResponseInto.
func DecodeResponse(typ uint8, id uint64, body []byte) (*Response, error) {
	resp := new(Response)
	if err := DecodeResponseInto(resp, typ, id, body); err != nil {
		return nil, err
	}
	return resp, nil
}

// DecodeResponseInto decodes a response frame's body into resp, overwriting
// every field. Value and the byte fields of Rows alias body; Rows and Stats
// are fresh slices, so a decoded response may be handed on while resp is
// reused.
func DecodeResponseInto(resp *Response, typ uint8, id uint64, body []byte) error {
	*resp = Response{Code: Code(typ), ID: id}
	var err error
	switch resp.Code {
	case CodeOK:
		if resp.Ts, body, err = readUvarint(body, "ok ts"); err != nil {
			return err
		}
	case CodeValue:
		if resp.Ts, body, err = readUvarint(body, "value ts"); err != nil {
			return err
		}
		if resp.Value, body, err = readBytes(body, "value"); err != nil {
			return err
		}
	case CodeNotFound, CodeBusy, CodePong:
		// empty body
	case CodeChunk:
		resp.Value, body = body, nil
	case CodeRows:
		var n uint64
		if n, body, err = readUvarint(body, "row count"); err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			var r Row
			if r.Key, body, err = readBytes(body, "row key"); err != nil {
				return err
			}
			if r.Ts, body, err = readUvarint(body, "row ts"); err != nil {
				return err
			}
			if r.Value, body, err = readBytes(body, "row value"); err != nil {
				return err
			}
			resp.Rows = append(resp.Rows, r)
		}
	case CodeScanEnd:
		if resp.Total, body, err = readUvarint(body, "scan total"); err != nil {
			return err
		}
	case CodeErr:
		var errno uint64
		if errno, body, err = readUvarint(body, "errno"); err != nil {
			return err
		}
		resp.Errno = Errno(errno)
		var msg []byte
		if msg, body, err = readBytes(body, "error message"); err != nil {
			return err
		}
		resp.Msg = string(msg)
	case CodeStats:
		var n uint64
		if n, body, err = readUvarint(body, "stat count"); err != nil {
			return err
		}
		for i := uint64(0); i < n; i++ {
			var st Stat
			var name []byte
			if name, body, err = readBytes(body, "stat name"); err != nil {
				return err
			}
			st.Name = string(name)
			if st.Value, body, err = readUvarint(body, "stat value"); err != nil {
				return err
			}
			resp.Stats = append(resp.Stats, st)
		}
	default:
		return &DecodeError{What: fmt.Sprintf("response code %d", typ)}
	}
	if len(body) != 0 {
		return &DecodeError{What: "trailing bytes"}
	}
	return nil
}
