// Package wal implements the write-ahead log of the LSM store. The log file
// itself lives in the untrusted world (outside the enclave, §5.3 step w3);
// the enclave keeps only a running digest chain over appended records
// (step w1: dig' = H(dig ‖ record)), so replay after a crash can be
// verified — a host that drops, reorders, or alters WAL entries produces a
// digest mismatch.
//
// Record framing: [crc32 u32][len u32][kind u8][keyLen u32][key][ts u64][valLen u32][val]
//
// Group commit: every append — single-record Append or grouped AppendBatch —
// is terminated by a COMMIT marker frame ([crc32 u32][len u32][0xF0][count
// u32]) carrying the group's record count. Replay delivers only records of
// complete (marker-terminated) groups: a crash that tears the tail of the
// log loses at most the uncommitted final group, never a suffix of a group,
// so recovery always observes a prefix of whole commits. Markers are
// framing-only — they do not enter the digest chain, which remains a
// per-record hash chain over the committed records.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// ErrCorrupt reports a record whose framing or checksum does not parse.
var ErrCorrupt = errors.New("wal: corrupt record")

// commitMarker is the frame-kind byte of a group COMMIT marker. It is
// disjoint from every record.Kind, so record frames and marker frames are
// unambiguous.
const commitMarker = 0xF0

// Writer appends records to a WAL file while maintaining the enclave-side
// digest chain. Not safe for concurrent use (the LSM store serializes
// writes).
type Writer struct {
	f   vfs.File
	dig hashutil.Hash
	buf []byte
}

// NewWriter starts a fresh log on f with a zero digest.
func NewWriter(f vfs.File) *Writer {
	return &Writer{f: f}
}

// ResumeWriter continues appending to an existing log whose replayed digest
// chain ended at dig (crash recovery).
func ResumeWriter(f vfs.File, dig hashutil.Hash) *Writer {
	return &Writer{f: f, dig: dig}
}

// encode appends the framed record to dst.
func encode(dst []byte, rec record.Record) []byte {
	body := make([]byte, 0, 1+4+len(rec.Key)+8+4+len(rec.Value))
	body = append(body, byte(rec.Kind))
	body = binary.BigEndian.AppendUint32(body, uint32(len(rec.Key)))
	body = append(body, rec.Key...)
	body = binary.BigEndian.AppendUint64(body, rec.Ts)
	body = binary.BigEndian.AppendUint32(body, uint32(len(rec.Value)))
	body = append(body, rec.Value...)

	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// encodeMarker appends a COMMIT marker frame declaring an n-record group.
func encodeMarker(dst []byte, n int) []byte {
	body := make([]byte, 0, 5)
	body = append(body, commitMarker)
	body = binary.BigEndian.AppendUint32(body, uint32(n))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	return append(dst, body...)
}

// Append writes one record as a single-record commit group.
func (w *Writer) Append(rec record.Record) error {
	return w.AppendBatch([]record.Record{rec})
}

// AppendBatch writes a group of records plus its COMMIT marker as one
// contiguous file append, advancing the digest chain per record. The whole
// group reaches the untrusted file in a single write and replay only
// accepts marker-terminated groups, so a crash (or a truncating host) can
// only remove whole groups from the tail — and the digest chain exposes
// anything subtler as tampering.
func (w *Writer) AppendBatch(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.buf = w.buf[:0]
	for i := range recs {
		w.buf = encode(w.buf, recs[i])
	}
	w.buf = encodeMarker(w.buf, len(recs))
	if _, err := w.f.Append(w.buf); err != nil {
		return fmt.Errorf("wal: append batch: %w", err)
	}
	for i := range recs {
		w.dig = hashutil.WALLink(w.dig, byte(recs[i].Kind), recs[i].Key, recs[i].Ts, recs[i].Value)
	}
	return nil
}

// Digest returns the current chain digest. The enclave stores this value;
// the log file itself is untrusted.
func (w *Writer) Digest() hashutil.Hash { return w.dig }

// Sync flushes the log to stable storage.
func (w *Writer) Sync() error { return w.f.Sync() }

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// ReplayInfo reports what a group-aware replay recovered.
type ReplayInfo struct {
	// Digest is the recomputed chain over the delivered (committed)
	// records. Callers compare it with the trusted value saved in the
	// enclave; a mismatch means the untrusted host tampered with the log.
	Digest hashutil.Hash
	// Records counts delivered records.
	Records int
	// CommittedSize is the byte offset just past the last complete group's
	// COMMIT marker — the length recovery should truncate the log to.
	CommittedSize int64
	// TornRecords counts well-formed records discarded because their group
	// never reached its COMMIT marker (a crash mid-group-append).
	TornRecords int
}

// Replay reads the log in order, calling fn for each record of each
// complete (marker-terminated) commit group. An incomplete tail — a torn
// frame at EOF, or trailing record frames with no COMMIT marker — is NOT an
// error: it is the signature of a crash mid-append, and is reported via
// TornRecords/CommittedSize so the caller can truncate it away. Structural
// damage before the tail (a CRC mismatch, a marker whose count disagrees
// with its group) still fails with ErrCorrupt: that is tampering, not a
// crash artifact.
func Replay(f vfs.File, fn func(record.Record) error) (ReplayInfo, error) {
	return ReplayFrom(f, hashutil.Zero, fn)
}

// ReplayFrom is Replay with the digest chain seeded at start instead of
// zero. Recovery uses it to chain the digest across a sequence of log files
// (frozen logs awaiting a flush install, then the active log): replaying
// file N+1 from file N's final digest yields the same chain as one
// concatenated log.
func ReplayFrom(f vfs.File, start hashutil.Hash, fn func(record.Record) error) (ReplayInfo, error) {
	return ReplayFromOffset(f, 0, start, fn)
}

// ReplayFromOffset replays the log starting at byte offset off, which must
// be a group boundary (0 or a prior replay's CommittedSize). Replication
// tailing uses it to resume mid-log: a follower that already applied the
// groups before off re-reads only the suffix, seeding the digest chain with
// the trusted value reached at off. CommittedSize in the returned info is
// absolute (an offset into the file, not into the suffix).
func ReplayFromOffset(f vfs.File, off int64, start hashutil.Hash, fn func(record.Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	info.Digest = start
	info.CommittedSize = off
	data := f.Bytes()
	if data != nil {
		if off > int64(len(data)) {
			return info, fmt.Errorf("wal: replay offset %d beyond log size %d", off, len(data))
		}
		data = data[off:]
	} else {
		size := f.Size()
		if off > size {
			return info, fmt.Errorf("wal: replay offset %d beyond log size %d", off, size)
		}
		data = make([]byte, size-off)
		if _, err := f.ReadAt(data, off); err != nil && len(data) > 0 {
			return info, fmt.Errorf("wal: read: %w", err)
		}
	}
	rel, err := ReplayBytes(data, start, fn)
	rel.CommittedSize += off
	return rel, err
}

// ReplayBytes is the byte-slice core of replay: it walks data — an
// in-memory copy of a log (or a group-aligned suffix of one) — delivering
// records of complete commit groups exactly as Replay does over a file.
// Checkpoint import uses it to verify shipped WAL bytes against the
// attested digest chain without materializing a file.
func ReplayBytes(data []byte, start hashutil.Hash, fn func(record.Record) error) (ReplayInfo, error) {
	var info ReplayInfo
	info.Digest = start
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
		if len(body) == 5 && body[0] == commitMarker {
			count := int(binary.BigEndian.Uint32(body[1:5]))
			if count != len(pending) {
				return info, fmt.Errorf("%w: commit marker declares %d records, group has %d",
					ErrCorrupt, count, len(pending))
			}
			for _, rec := range pending {
				if err := fn(rec); err != nil {
					return info, err
				}
				info.Digest = hashutil.WALLink(info.Digest, byte(rec.Kind), rec.Key, rec.Ts, rec.Value)
				info.Records++
			}
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
	rec.Key = append([]byte(nil), body[p:p+klen]...)
	p += klen
	rec.Ts = binary.BigEndian.Uint64(body[p : p+8])
	p += 8
	vlen := int(binary.BigEndian.Uint32(body[p : p+4]))
	p += 4
	if p+vlen != len(body) {
		return rec, fmt.Errorf("%w: bad value length %d", ErrCorrupt, vlen)
	}
	rec.Value = append([]byte(nil), body[p:p+vlen]...)
	return rec, nil
}
