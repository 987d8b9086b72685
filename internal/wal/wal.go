// Package wal implements the write-ahead log of the LSM store. The log file
// itself lives in the untrusted world (outside the enclave, §5.3 step w3).
// The package keeps no digest and holds no key, neither when writing nor
// when replaying: the key that tags each group, over the group's records
// (step w1's link, dig' = H(dig ‖ record), from zero) and its position in
// the log's history, has one owner, the authentication layer. It computes a
// group's tag before the engine appends the group, and at recovery it checks
// the tag of every group Replay hands back, so a host can neither alter,
// move nor add a group the enclave did not write; it can only drop groups
// back to the seal (the §5.6.1 rollback window).
//
// Record framing: [crc32 u32][len u32][kind u8][keyLen u32][key][ts u64][valLen u32][val]
//
// Group commit: every append is terminated by a COMMIT marker frame
// ([crc32 u32][len u32][0xF2][count u32][tag 16]) carrying the group's
// record count and its authentication tag. Replay delivers only records of
// complete (marker-terminated) groups, each with its tag: a crash that
// tears the tail of the log loses at most the uncommitted final group, never
// a suffix of a group, so recovery always observes a prefix of whole commits.
// A writer that authenticates nothing writes a zero tag.
//
// The marker's kind byte is the format version, and Replay refuses a log of
// an earlier one (ErrOldFormat). Format 1 wrote 5-byte markers
// ([0xF0][count u32]) with no tag. Format 2's markers (0xF1) are laid out
// as format 3's, but their tags are over a digest chained across groups,
// which the authentication layer does not compute.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// ErrCorrupt reports a record whose framing or checksum does not parse.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrOldFormat reports a log written in an earlier format, whose COMMIT
// markers this package does not read.
var ErrOldFormat = errors.New("wal: log of an earlier format")

// The frame-kind bytes of a COMMIT marker: format 3's, and those of formats
// 1 and 2, which Replay refuses. All are disjoint from every record.Kind, so
// record frames and marker frames are unambiguous.
const (
	commitMarker   = 0xF2
	commitMarkerV1 = 0xF0
	commitMarkerV2 = 0xF1
)

// TagSize is the length of a group's authentication tag: 128 bits, as much
// as a forger must guess and no more, since every marker byte is paid once
// per commit group.
const TagSize = 16

// Tag is a commit group's authentication tag, as its COMMIT marker carries
// it. The package neither computes nor checks one.
type Tag [TagSize]byte

// markerBody is the length of a COMMIT marker's body: kind, count, tag.
const markerBody = 1 + 4 + TagSize

// Writer appends records to a WAL file, framing each group in place in one
// reused buffer. Not safe for concurrent use (the LSM store serializes
// writes).
type Writer struct {
	f   vfs.File
	buf []byte
}

// NewWriter appends to the log on f, fresh or recovered.
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f}
}

// frameHeader is the [crc32 u32][len u32] prefix of every frame.
const frameHeader = 8

// beginFrame reserves a frame header at the end of dst; endFrame fills it in
// once the body follows it.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, frameHeader)...), len(dst)
}

// endFrame writes the CRC and length of the frame that starts at start.
func endFrame(dst []byte, start int) []byte {
	body := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(body)))
	return dst
}

// encode appends the framed record to dst.
func encode(dst []byte, rec record.Record) []byte {
	dst, start := beginFrame(dst)
	dst = append(dst, byte(rec.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Key)))
	dst = append(dst, rec.Key...)
	dst = binary.BigEndian.AppendUint64(dst, rec.Ts)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Value)))
	dst = append(dst, rec.Value...)
	return endFrame(dst, start)
}

// encodeMarker appends a COMMIT marker frame declaring an n-record group
// and carrying its tag.
func encodeMarker(dst []byte, n int, tag *Tag) []byte {
	dst, start := beginFrame(dst)
	dst = append(dst, commitMarker)
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, tag[:]...)
	return endFrame(dst, start)
}

// AppendGroup appends recs to dst as one commit group — each record framed,
// then the COMMIT marker carrying tag — exactly as AppendTagged writes it to
// the log. Replication ships a group in these bytes, and Replay reads them
// back.
func AppendGroup(dst []byte, recs []record.Record, tag *Tag) []byte {
	for i := range recs {
		dst = encode(dst, recs[i])
	}
	return encodeMarker(dst, len(recs), tag)
}

// GroupSize is len(AppendGroup(nil, recs, tag)).
func GroupSize(recs []record.Record) int {
	n := frameHeader + markerBody
	for i := range recs {
		n += frameHeader + 1 + 4 + len(recs[i].Key) + 8 + 4 + len(recs[i].Value)
	}
	return n
}

// AppendTagged writes a group of records plus its COMMIT marker, which
// carries tag, as one contiguous file append. The whole group reaches the
// untrusted file in a single write and replay only accepts
// marker-terminated groups, so a crash (or a truncating host) can only
// remove whole groups from the tail — and the enclave's tags expose
// anything subtler as tampering.
func (w *Writer) AppendTagged(recs []record.Record, tag *Tag) error {
	if len(recs) == 0 {
		return nil
	}
	w.buf = AppendGroup(w.buf[:0], recs, tag)
	if _, err := w.f.Append(w.buf); err != nil {
		return fmt.Errorf("wal: append batch: %w", err)
	}
	return nil
}

// AppendBatch is AppendTagged with a zero tag: the log of a store that
// authenticates nothing.
func (w *Writer) AppendBatch(recs []record.Record) error {
	return w.AppendTagged(recs, &Tag{})
}

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// ReplayInfo reports what a group-aware replay recovered.
type ReplayInfo struct {
	// Records counts delivered records.
	Records int
	// CommittedSize is the byte offset just past the last complete group's
	// COMMIT marker — the length recovery should truncate the log to.
	CommittedSize int64
	// TornRecords counts well-formed records discarded because their group
	// never reached its COMMIT marker (a crash mid-group-append).
	TornRecords int
}

// Replay walks data — a whole log, read with vfs.ReadFile, or shipped WAL
// bytes — and calls fn once per complete (marker-terminated) commit group, in
// log order, with the tag its marker carries. The records and the tag view
// data; the group slice is reused once fn returns. An incomplete tail — a torn frame at EOF, or trailing record
// frames with no COMMIT marker — is NOT an error: it is the signature of a
// crash mid-append, and is reported via TornRecords/CommittedSize so the
// caller can truncate it away. Structural damage before the tail (a CRC
// mismatch, a marker whose count disagrees with its group) still fails with
// ErrCorrupt: that is tampering, not a crash artifact; a marker of an
// earlier format fails with ErrOldFormat. Replay keeps no digest and checks
// no tag: the caller authenticates what it is handed.
func Replay(data []byte, fn func(group []record.Record, tag *Tag) error) (ReplayInfo, error) {
	var info ReplayInfo
	var pending []record.Record
	off := 0
	for off < len(data) {
		if off+8 > len(data) {
			break // torn header at EOF: crash artifact
		}
		crc := binary.BigEndian.Uint32(data[off : off+4])
		n := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
		if off+8+n > len(data) {
			break // torn body at EOF: crash artifact
		}
		body := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(body) != crc {
			return info, fmt.Errorf("%w: crc mismatch at %d", ErrCorrupt, off)
		}
		off += 8 + n
		if len(body) > 0 && (body[0] == commitMarkerV1 || body[0] == commitMarkerV2) {
			return info, fmt.Errorf("%w: marker at %d", ErrOldFormat, off-8-n)
		}
		if len(body) == markerBody && body[0] == commitMarker {
			count := int(binary.BigEndian.Uint32(body[1:5]))
			if count != len(pending) {
				return info, fmt.Errorf("%w: commit marker declares %d records, group has %d",
					ErrCorrupt, count, len(pending))
			}
			if len(pending) > 0 {
				if err := fn(pending, (*Tag)(body[5:])); err != nil {
					return info, err
				}
			}
			info.Records += len(pending)
			pending = pending[:0]
			info.CommittedSize = int64(off)
			continue
		}
		rec, err := decodeBody(body)
		if err != nil {
			return info, err
		}
		pending = append(pending, rec)
	}
	info.TornRecords = len(pending)
	return info, nil
}

func decodeBody(body []byte) (record.Record, error) {
	var rec record.Record
	if len(body) < 1+4 {
		return rec, fmt.Errorf("%w: short body", ErrCorrupt)
	}
	rec.Kind = record.Kind(body[0])
	if rec.Kind != record.KindSet && rec.Kind != record.KindDelete {
		return rec, fmt.Errorf("%w: bad kind %d", ErrCorrupt, body[0])
	}
	p := 1
	klen := int(binary.BigEndian.Uint32(body[p : p+4]))
	p += 4
	if p+klen+8+4 > len(body) {
		return rec, fmt.Errorf("%w: bad key length %d", ErrCorrupt, klen)
	}
	rec.Key = body[p : p+klen : p+klen]
	p += klen
	rec.Ts = binary.BigEndian.Uint64(body[p : p+8])
	p += 8
	vlen := int(binary.BigEndian.Uint32(body[p : p+4]))
	p += 4
	if p+vlen != len(body) {
		return rec, fmt.Errorf("%w: bad value length %d", ErrCorrupt, vlen)
	}
	rec.Value = body[p : p+vlen : p+vlen]
	return rec, nil
}
