package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/sgx"
)

// maxFrameBody bounds what a follower will buffer for one frame.
const maxFrameBody = 64 << 20

// Frame types. Group frames carry one committed commit group; heartbeat
// frames carry only the leader's identity and frontier, proving liveness
// (and refreshing lag gauges) while the stream idles at the head.
const (
	frameGroup     = 1
	frameHeartbeat = 2
)

// groupFrame is one committed commit group on the wire, plus the leader's
// head position at send time (the follower's lag gauges are derived from
// the deltas). Shard and Shards bind the frame to one partition of one
// topology: the attestation report covers them, so an untrusted transport
// cannot splice shard streams (serve shard 0's groups to a shard-1
// follower) without the follower detecting it. Epoch binds the frame to
// one replication epoch: a frame from an older epoch is a zombie leader
// (ErrFenced), one from a newer epoch means this follower missed a
// promotion and must re-bootstrap.
type groupFrame struct {
	Heartbeat bool // frameHeartbeat: no records, frontier info only

	Shard  uint32 // partition this group belongs to
	Shards uint32 // leader's total partition count
	Epoch  uint64 // leader's replication epoch at send time

	PrevTs uint64 // applied frontier before the group
	LastTs uint64 // applied frontier after the group
	Seq    uint64 // hub sequence number of this group
	Bytes  int64  // payload bytes of this group

	FrontierSeq   uint64 // newest hub sequence at send time
	FrontierTs    uint64 // leader applied frontier at send time
	FrontierBytes int64  // cumulative hub bytes at send time
	CumBytes      int64  // cumulative hub bytes through this group

	Recs []record.Record
	// Chain is the WAL hash chain from zero over Recs — the same
	// per-record links the records add to both stores' WAL digests.
	Chain hashutil.Hash
}

// chainOver folds recs into a WAL hash chain from zero.
func chainOver(recs []record.Record) hashutil.Hash {
	dig := hashutil.Zero
	for i := range recs {
		dig = hashutil.WALLink(dig, byte(recs[i].Kind), recs[i].Key, recs[i].Ts, recs[i].Value)
	}
	return dig
}

// frameFixedLen is the size of a frame body with zero records: type byte,
// shard pair, epoch, eight u64 position fields, record count, chain.
const frameFixedLen = 1 + 2*4 + 8 + 8*8 + 4 + 32

// minRecordLen is an encoded record with an empty key and value: kind byte,
// key length, timestamp, value length.
const minRecordLen = 1 + 4 + 8 + 4

// encodeFrame serializes the frame body and returns (body, report
// payload): the report over the body is appended separately by the caller.
// Heartbeat and group frames share one layout; heartbeats carry no records
// and a zero chain.
func encodeFrame(f *groupFrame) []byte {
	size := frameFixedLen
	for i := range f.Recs {
		size += 1 + 4 + len(f.Recs[i].Key) + 8 + 4 + len(f.Recs[i].Value)
	}
	body := make([]byte, 0, size)
	if f.Heartbeat {
		body = append(body, frameHeartbeat)
	} else {
		body = append(body, frameGroup)
	}
	body = binary.BigEndian.AppendUint32(body, f.Shard)
	body = binary.BigEndian.AppendUint32(body, f.Shards)
	body = binary.BigEndian.AppendUint64(body, f.Epoch)
	body = binary.BigEndian.AppendUint64(body, f.PrevTs)
	body = binary.BigEndian.AppendUint64(body, f.LastTs)
	body = binary.BigEndian.AppendUint64(body, f.Seq)
	body = binary.BigEndian.AppendUint64(body, uint64(f.Bytes))
	body = binary.BigEndian.AppendUint64(body, f.FrontierSeq)
	body = binary.BigEndian.AppendUint64(body, f.FrontierTs)
	body = binary.BigEndian.AppendUint64(body, uint64(f.FrontierBytes))
	body = binary.BigEndian.AppendUint64(body, uint64(f.CumBytes))
	body = binary.BigEndian.AppendUint32(body, uint32(len(f.Recs)))
	for i := range f.Recs {
		r := &f.Recs[i]
		body = append(body, byte(r.Kind))
		body = binary.BigEndian.AppendUint32(body, uint32(len(r.Key)))
		body = append(body, r.Key...)
		body = binary.BigEndian.AppendUint64(body, r.Ts)
		body = binary.BigEndian.AppendUint32(body, uint32(len(r.Value)))
		body = append(body, r.Value...)
	}
	body = append(body, f.Chain[:]...)
	return body
}

// writeFrame frames body+report onto w: [u32 len(body)][body][128B report].
func writeFrame(w io.Writer, body []byte, rep sgx.Report) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	var rb [128]byte
	copy(rb[:32], rep.Measurement[:])
	copy(rb[32:96], rep.Data[:])
	copy(rb[96:], rep.MAC[:])
	_, err := w.Write(rb[:])
	return err
}

// readFrame reads one framed body and its report. io.EOF at a frame
// boundary is returned as-is (clean stream end).
func readFrame(r io.Reader) (body []byte, rep sgx.Report, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, rep, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrameBody {
		return nil, rep, fmt.Errorf("repl: implausible frame length %d", n)
	}
	// Reserve for an ordinary frame and grow as the bytes arrive beyond
	// that: a four-byte header cannot cost maxFrameBody.
	buf := bytes.NewBuffer(make([]byte, 0, min(n, 32<<10)))
	if _, err = io.CopyN(buf, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // mid-frame: not a clean stream end
		}
		return nil, rep, err
	}
	body = buf.Bytes()
	var rb [128]byte
	if _, err = io.ReadFull(r, rb[:]); err != nil {
		return nil, rep, err
	}
	copy(rep.Measurement[:], rb[:32])
	copy(rep.Data[:], rb[32:96])
	copy(rep.MAC[:], rb[96:])
	return body, rep, nil
}

// decodeFrame parses a frame body back into a groupFrame.
func decodeFrame(body []byte) (*groupFrame, error) {
	bad := func(what string) (*groupFrame, error) {
		return nil, fmt.Errorf("repl: malformed frame: %s", what)
	}
	if len(body) < frameFixedLen {
		return bad("short body")
	}
	if body[0] != frameGroup && body[0] != frameHeartbeat {
		return bad("unknown frame type")
	}
	f := &groupFrame{Heartbeat: body[0] == frameHeartbeat}
	p := 1
	u32 := func() uint32 {
		v := binary.BigEndian.Uint32(body[p : p+4])
		p += 4
		return v
	}
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(body[p : p+8])
		p += 8
		return v
	}
	f.Shard = u32()
	f.Shards = u32()
	f.Epoch = u64()
	f.PrevTs = u64()
	f.LastTs = u64()
	f.Seq = u64()
	f.Bytes = int64(u64())
	f.FrontierSeq = u64()
	f.FrontierTs = u64()
	f.FrontierBytes = int64(u64())
	f.CumBytes = int64(u64())
	nrecs := int(binary.BigEndian.Uint32(body[p : p+4]))
	p += 4
	// A record is at least minRecordLen bytes, so the body bounds the count
	// — and with it what the reservation below may allocate.
	if nrecs < 0 || nrecs > (len(body)-frameFixedLen)/minRecordLen {
		return bad("implausible record count")
	}
	if f.Heartbeat && nrecs != 0 {
		return bad("heartbeat with records")
	}
	f.Recs = make([]record.Record, 0, nrecs)
	for i := 0; i < nrecs; i++ {
		if p+1+4 > len(body) {
			return bad("truncated record header")
		}
		var rec record.Record
		rec.Kind = record.Kind(body[p])
		p++
		klen := int(binary.BigEndian.Uint32(body[p : p+4]))
		p += 4
		if klen < 0 || p+klen+8+4 > len(body) {
			return bad("truncated key")
		}
		rec.Key = append([]byte(nil), body[p:p+klen]...)
		p += klen
		rec.Ts = binary.BigEndian.Uint64(body[p : p+8])
		p += 8
		vlen := int(binary.BigEndian.Uint32(body[p : p+4]))
		p += 4
		if vlen < 0 || p+vlen+32 > len(body) {
			return bad("truncated value")
		}
		if vlen > 0 {
			rec.Value = append([]byte(nil), body[p:p+vlen]...)
		}
		p += vlen
		f.Recs = append(f.Recs, rec)
	}
	if p+32 != len(body) {
		return bad("trailing bytes")
	}
	copy(f.Chain[:], body[p:])
	return f, nil
}
