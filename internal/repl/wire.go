package repl

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/wal"
)

// Frame types. Group frames carry one committed commit group; heartbeat
// frames carry only the leader's identity and frontier, proving liveness
// (and refreshing lag gauges) while the stream idles at the head. Types 1
// to 4 named earlier layouts: 1 and 2 carried their own record codec in
// place of the WAL's group bytes, 3 and 4 a 32-byte chain over the group's
// records in the header. A build of any layout refuses the others' frames
// instead of misreading them.
const (
	frameGroup     = 5
	frameHeartbeat = 6
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
	Heartbeat bool // frameHeartbeat: no group, frontier info only

	Shard  uint32 // partition this group belongs to
	Shards uint32 // leader's total partition count
	Epoch  uint64 // leader's replication epoch at send time

	PrevTs uint64 // applied frontier before the group
	LastTs uint64 // applied frontier after the group
	Seq    uint64 // hub sequence number of this group

	FrontierSeq   uint64 // newest hub sequence at send time
	FrontierTs    uint64 // leader applied frontier at send time
	FrontierBytes int64  // cumulative hub group bytes at send time
	CumBytes      int64  // cumulative hub group bytes through this group

	// Group is the commit group exactly as wal.AppendGroup encodes it (and
	// the leader's log holds it); empty in a heartbeat.
	Group []byte
	// Recs are Group's records as decodeFrame parsed them, views of Group.
	// encodeFrame ignores them.
	Recs []record.Record
}

// frameHeaderLen is the size of a frame body before its group bytes: type
// byte, shard pair, epoch, seven position fields.
const frameHeaderLen = 1 + 2*4 + 8*8

// encodeFrame serializes the frame body: the fixed header, then Group. The
// report over the body is appended separately by writeFrame.
func encodeFrame(f *groupFrame) []byte {
	body := make([]byte, 0, frameHeaderLen+len(f.Group))
	if f.Heartbeat {
		body = append(body, frameHeartbeat)
	} else {
		body = append(body, frameGroup)
	}
	body = binary.BigEndian.AppendUint32(body, f.Shard)
	body = binary.BigEndian.AppendUint32(body, f.Shards)
	for _, v := range [...]uint64{f.Epoch, f.PrevTs, f.LastTs, f.Seq,
		f.FrontierSeq, f.FrontierTs, uint64(f.FrontierBytes), uint64(f.CumBytes)} {
		body = binary.BigEndian.AppendUint64(body, v)
	}
	return append(body, f.Group...)
}

// writeFrame frames body+report onto w: [u32 len(body)][body][report].
func writeFrame(w io.Writer, body []byte, rep sgx.Report) error {
	if _, err := w.Write(binary.BigEndian.AppendUint32(nil, uint32(len(body)))); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	return sgx.WriteReport(w, rep)
}

// readFrame reads one framed body and its report. io.EOF at a frame
// boundary is returned as-is (clean stream end). Any length the leader can
// write is accepted: a commit group has no size cap, so neither has its
// frame.
func readFrame(r io.Reader) (body []byte, rep sgx.Report, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, rep, err
	}
	n := int(binary.BigEndian.Uint32(lenBuf[:]))
	// Reserve for an ordinary frame and grow only as the bytes arrive: a
	// four-byte header cannot cost what it declares.
	body = make([]byte, 0, min(n, 32<<10))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(len(body), n-len(body)))
		}
		m, err := io.ReadFull(r, body[len(body):min(cap(body), n)])
		body = body[:len(body)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // mid-frame: not a clean stream end
			}
			return nil, rep, err
		}
	}
	rep, err = sgx.ReadReport(r)
	return body, rep, err
}

// decodeFrame parses a frame body back into a groupFrame. A group frame's
// bytes after the header must be exactly one whole commit group of at
// least one record, as wal.AppendGroup writes it: wal.Replay parses them,
// and the frame is refused unless they end at the group's COMMIT marker
// and are exactly that group's size — which no second group, no
// marker-only group and no torn or trailing frame can be.
func decodeFrame(body []byte) (*groupFrame, error) {
	bad := func(what string) (*groupFrame, error) {
		return nil, fmt.Errorf("repl: malformed frame: %s", what)
	}
	if len(body) < frameHeaderLen {
		return bad("short body")
	}
	if body[0] != frameGroup && body[0] != frameHeartbeat {
		return bad("unknown frame type")
	}
	f := &groupFrame{Heartbeat: body[0] == frameHeartbeat}
	f.Shard = binary.BigEndian.Uint32(body[1:])
	f.Shards = binary.BigEndian.Uint32(body[5:])
	var u [8]uint64
	for i := range u {
		u[i] = binary.BigEndian.Uint64(body[9+8*i:])
	}
	f.Epoch, f.PrevTs, f.LastTs, f.Seq, f.FrontierSeq, f.FrontierTs = u[0], u[1], u[2], u[3], u[4], u[5]
	f.FrontierBytes, f.CumBytes = int64(u[6]), int64(u[7])
	group := body[frameHeaderLen:]
	if f.Heartbeat {
		if len(group) != 0 {
			return bad("heartbeat with a group")
		}
		return f, nil
	}
	groups := 0
	info, err := wal.Replay(group, func(recs []record.Record, _ *wal.Tag) error {
		groups++
		f.Recs = recs
		return nil
	})
	if err != nil {
		return bad(err.Error())
	}
	if groups != 1 || info.CommittedSize != int64(len(group)) || wal.GroupSize(f.Recs) != len(group) {
		return bad("not exactly one commit group")
	}
	f.Group = group
	return f, nil
}
