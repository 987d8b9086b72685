package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

func testRecords(n int) []record.Record {
	out := make([]record.Record, n)
	for i := range out {
		kind := record.KindSet
		if i%7 == 3 {
			kind = record.KindDelete
		}
		out[i] = record.Record{
			Key:   []byte(fmt.Sprintf("key%04d", i)),
			Ts:    uint64(i + 1),
			Kind:  kind,
			Value: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	return out
}

// chain is the digest chain over recs from zero, computed independently of
// the log: what the enclave extends per appended record.
func chain(recs []record.Record) hashutil.Hash {
	dig := hashutil.Zero
	for _, rec := range recs {
		dig = hashutil.WALLink(dig, byte(rec.Kind), rec.Key, rec.Ts, rec.Value)
	}
	return dig
}

// replayLog reads the log named "wal" whole and replays it, handing fn each
// delivered record in order.
func replayLog(fs vfs.FS, fn func(record.Record) error) (ReplayInfo, error) {
	data, err := vfs.ReadFile(fs, "wal")
	if err != nil {
		return ReplayInfo{}, err
	}
	return Replay(data, func(group []record.Record, _ *Tag) error {
		for _, rec := range group {
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// replayChain replays the log named "wal" and returns the chain over the
// records it delivers: what the enclave recomputes at recovery.
func replayChain(t *testing.T, fs vfs.FS) (ReplayInfo, hashutil.Hash) {
	t.Helper()
	var got []record.Record
	info, err := replayLog(fs, func(rec record.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return info, chain(got)
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	recs := testRecords(100)
	for _, rec := range recs {
		if err := w.AppendBatch([]record.Record{rec}); err != nil {
			t.Fatal(err)
		}
	}
	wantDig := chain(recs)

	var got []record.Record
	info, err := replayLog(fs, func(rec record.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dig := chain(got); dig != wantDig {
		t.Fatalf("chain over the replayed records %s != chain over the appended records %s", dig, wantDig)
	}
	if len(got) != len(recs) || info.Records != len(recs) {
		t.Fatalf("replayed %d (info %d) of %d", len(got), info.Records, len(recs))
	}
	if info.TornRecords != 0 {
		t.Fatalf("clean log reported %d torn records", info.TornRecords)
	}
	if info.CommittedSize != f.Size() {
		t.Fatalf("committed size %d != file size %d", info.CommittedSize, f.Size())
	}
	for i := range recs {
		if string(got[i].Key) != string(recs[i].Key) || got[i].Ts != recs[i].Ts ||
			got[i].Kind != recs[i].Kind || string(got[i].Value) != string(recs[i].Value) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
}

func TestReplayEmptyLog(t *testing.T) {
	fs := vfs.NewMem()
	fs.Create("wal")
	info, err := replayLog(fs, func(record.Record) error {
		t.Fatal("an empty log delivered a record")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info != (ReplayInfo{}) {
		t.Fatalf("empty log replays to %+v", info)
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	for _, rec := range testRecords(10) {
		w.AppendBatch([]record.Record{rec})
	}
	// Flip a byte in the middle of the log body.
	if err := fs.Corrupt("wal", f.Size()/2); err != nil {
		t.Fatal(err)
	}
	_, err := replayLog(fs, func(record.Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestTamperedValueChangesDigest(t *testing.T) {
	// A tamper that keeps CRC valid (rewrite whole record) still changes
	// the chain over what replay delivers — that is what the enclave
	// compares against.
	fs := vfs.NewMem()
	write := func(val string) hashutil.Hash {
		f, _ := fs.Create("wal")
		w := NewWriter(f)
		w.AppendBatch([]record.Record{{Key: []byte("k"), Ts: 1, Kind: record.KindSet, Value: []byte(val)}})
		_, dig := replayChain(t, fs)
		return dig
	}
	if write("honest") == write("forged") {
		t.Fatal("digest chain blind to value change")
	}
}

func TestResumeWriterContinuesChain(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	recs := testRecords(20)
	for _, rec := range recs[:10] {
		w.AppendBatch([]record.Record{rec})
	}

	// Simulate restart: replay, then a new writer appends to the same log.
	if _, dig := replayChain(t, fs); dig != chain(recs[:10]) {
		t.Fatal("replayed chain != chain at the restart point")
	}
	w2 := NewWriter(f)
	for _, rec := range recs[10:] {
		w2.AppendBatch([]record.Record{rec})
	}
	final, dig := replayChain(t, fs)
	if dig != chain(recs) || final.Records != len(recs) {
		t.Fatal("resumed log does not replay to the full chain")
	}
}

func TestGroupAppendReplaysAsOneGroup(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	recs := testRecords(9)
	tags := []Tag{{0: 1, TagSize - 1: 4}, {0: 2, TagSize - 1: 5}}
	if err := w.AppendTagged(recs[:4], &tags[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTagged(recs[4:], &tags[1]); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	var got []Tag
	info, err := Replay(data, func(group []record.Record, tag *Tag) error {
		sizes = append(sizes, len(group))
		got = append(got, *tag)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 9 || info.TornRecords != 0 || fmt.Sprint(sizes) != "[4 5]" {
		t.Fatalf("replay = %+v in groups %v, want 9 committed records in groups [4 5]", info, sizes)
	}
	if fmt.Sprint(got) != fmt.Sprint(tags) {
		t.Fatalf("replayed tags %v, want each group's own %v", got, tags)
	}
	if _, dig := replayChain(t, fs); dig != chain(recs) {
		t.Fatal("grouped replay chain != chain over the records")
	}
	// The exported group encoder writes the log's bytes: what replication
	// ships is what the log holds, and GroupSize predicts its length.
	group := AppendGroup(AppendGroup(nil, recs[:4], &tags[0]), recs[4:], &tags[1])
	if string(group) != string(data) {
		t.Fatal("AppendGroup bytes differ from the log AppendBatch wrote")
	}
	for _, g := range [][]record.Record{nil, recs[:1], recs} {
		if n, want := GroupSize(g), len(AppendGroup(nil, g, &Tag{})); n != want {
			t.Fatalf("GroupSize = %d for a group of %d bytes", n, want)
		}
	}
}

// TestTornTailDroppedAtGroupBoundary is the crash contract: a tail cut
// anywhere inside the final group — mid-frame or between whole record
// frames but before the COMMIT marker — silently discards that whole group
// and nothing before it, so recovery always sees a prefix of whole commits.
func TestTornTailDroppedAtGroupBoundary(t *testing.T) {
	build := func() (*vfs.MemFS, vfs.File, *Writer, int64) {
		fs := vfs.NewMem()
		f, _ := fs.Create("wal")
		w := NewWriter(f)
		recs := testRecords(8)
		if err := w.AppendBatch(recs[:5]); err != nil {
			t.Fatal(err)
		}
		committed := f.Size()
		if err := w.AppendBatch(recs[5:]); err != nil {
			t.Fatal(err)
		}
		return fs, f, w, committed
	}

	_, f, _, committed := build()
	full := f.Size()
	// Cut at every byte boundary inside the second group.
	for cut := committed + 1; cut < full; cut += 7 {
		fs2, f2, _, _ := build()
		if err := f2.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		var n int
		info, err := replayLog(fs2, func(record.Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut at %d: torn tail must not error: %v", cut, err)
		}
		if n != 5 || info.Records != 5 {
			t.Fatalf("cut at %d: replayed %d records, want the 5 committed", cut, n)
		}
		if info.CommittedSize != committed {
			t.Fatalf("cut at %d: committed size %d, want %d", cut, info.CommittedSize, committed)
		}
	}
}

func TestMarkerCountMismatchIsCorruption(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	// Hand-build a group whose marker over-declares its size: two record
	// frames followed by a marker claiming three. A host that drops a
	// record from inside a group (keeping frames CRC-valid) produces
	// exactly this shape.
	recs := testRecords(2)
	var buf []byte
	for _, rec := range recs {
		buf = encode(buf, rec)
	}
	buf = encodeMarker(buf, 3, &Tag{})
	if _, err := f.Append(buf); err != nil {
		t.Fatal(err)
	}
	_, err := replayLog(fs, func(record.Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("marker/group mismatch not flagged: %v", err)
	}
	_ = w
}

func TestReplayCallbackError(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	for _, rec := range testRecords(5) {
		w.AppendBatch([]record.Record{rec})
	}
	sentinel := errors.New("stop")
	_, err := replayLog(fs, func(record.Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// format1Group is a group as format 1 wrote it: the records, then a 5-byte
// marker with no tag.
func format1Group(recs []record.Record) []byte {
	var buf []byte
	for _, rec := range recs {
		buf = encode(buf, rec)
	}
	buf, start := beginFrame(buf)
	buf = append(buf, commitMarkerV1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	return endFrame(buf, start)
}

// TestFormat1LogIsRefused: a log whose groups end in untagged format 1
// markers is refused whole — the first group included — and so is a format 2
// log with a format 1 group after its tagged ones.
func TestFormat1LogIsRefused(t *testing.T) {
	recs := testRecords(4)
	for name, data := range map[string][]byte{
		"format 1 log":                format1Group(recs),
		"format 1 group after tagged": append(AppendGroup(nil, recs[:2], &Tag{}), format1Group(recs[2:])...),
	} {
		delivered := 0
		_, err := Replay(data, func(group []record.Record, _ *Tag) error {
			delivered += len(group)
			return nil
		})
		if !errors.Is(err, ErrOldFormat) {
			t.Errorf("%s: %v, want ErrOldFormat", name, err)
		}
		if name == "format 1 log" && delivered != 0 {
			t.Errorf("%s: delivered %d records", name, delivered)
		}
	}
}

// TestFormat2LogIsRefused: a log whose COMMIT markers carry format 2's kind
// byte — tags over a digest chained across groups, laid out as format 3's —
// is refused as a log of an earlier format, not handed on as groups whose
// tags would then fail.
func TestFormat2LogIsRefused(t *testing.T) {
	recs := testRecords(3)
	data := AppendGroup(nil, recs, &Tag{})
	marker := len(data) - frameHeader - markerBody
	data[marker+frameHeader] = commitMarkerV2
	binary.BigEndian.PutUint32(data[marker:], crc32.ChecksumIEEE(data[marker+frameHeader:]))
	delivered := 0
	_, err := Replay(data, func(group []record.Record, _ *Tag) error {
		delivered += len(group)
		return nil
	})
	if !errors.Is(err, ErrOldFormat) || delivered != 0 {
		t.Fatalf("format 2 log: %v after %d records, want ErrOldFormat before any", err, delivered)
	}
}
