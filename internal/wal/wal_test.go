package wal

import (
	"errors"
	"fmt"
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

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	recs := testRecords(100)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	wantDig := chain(recs)

	var got []record.Record
	info, err := Replay(f, func(rec record.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != wantDig {
		t.Fatalf("replay digest %s != chain over the appended records %s", info.Digest, wantDig)
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
	f, _ := fs.Create("wal")
	info, err := Replay(f, func(record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !info.Digest.IsZero() {
		t.Fatalf("empty log digest %s", info.Digest)
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	for _, rec := range testRecords(10) {
		w.Append(rec)
	}
	// Flip a byte in the middle of the log body.
	if err := fs.Corrupt("wal", f.Size()/2); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(f, func(record.Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestTamperedValueChangesDigest(t *testing.T) {
	// A tamper that keeps CRC valid (rewrite whole record) still changes
	// the digest chain — that is what the enclave compares against.
	fs := vfs.NewMem()
	write := func(val string) (digest [32]byte) {
		f, _ := fs.Create("wal")
		w := NewWriter(f)
		w.Append(record.Record{Key: []byte("k"), Ts: 1, Kind: record.KindSet, Value: []byte(val)})
		info, err := Replay(f, func(record.Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return info.Digest
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
		w.Append(rec)
	}

	// Simulate restart: replay, then a new writer appends to the same log.
	info, err := Replay(f, func(record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != chain(recs[:10]) {
		t.Fatal("replay digest != chain at the restart point")
	}
	w2 := NewWriter(f)
	for _, rec := range recs[10:] {
		w2.Append(rec)
	}
	final, err := Replay(f, func(record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if final.Digest != chain(recs) || final.Records != len(recs) {
		t.Fatal("resumed log does not replay to the full chain")
	}
	suffix, err := ReplayFromOffset(f, info.CommittedSize, info.Digest, func(record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if suffix.Digest != final.Digest {
		t.Fatal("the resumed suffix, chained onto the replayed prefix, diverged from full replay")
	}
}

func TestGroupAppendReplaysAsOneGroup(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	recs := testRecords(9)
	if err := w.AppendBatch(recs[:4]); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch(recs[4:]); err != nil {
		t.Fatal(err)
	}
	info, err := Replay(f, func(record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 9 || info.TornRecords != 0 {
		t.Fatalf("replay = %+v, want 9 committed records", info)
	}
	if info.Digest != chain(recs) {
		t.Fatal("grouped replay digest != chain over the records")
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
		_, f2, _, _ := build()
		if err := f2.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		var n int
		info, err := Replay(f2, func(record.Record) error { n++; return nil })
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
	buf = encodeMarker(buf, 3)
	if _, err := f.Append(buf); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(f, func(record.Record) error { return nil })
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
		w.Append(rec)
	}
	sentinel := errors.New("stop")
	_, err := Replay(f, func(record.Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// TestReplayFromOffsetMidLog replays a log suffix from an arbitrary group
// boundary in the middle of the log — the replication tail path — and
// checks it sees exactly the later groups, chained onto the prefix digest.
func TestReplayFromOffsetMidLog(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("wal")
	w := NewWriter(f)
	recs := testRecords(90)
	// Nine groups of ten; capture the boundary after group four.
	var midOff int64
	var midDig hashutil.Hash
	var midCount int
	for g := 0; g < 9; g++ {
		if err := w.AppendBatch(recs[g*10 : (g+1)*10]); err != nil {
			t.Fatal(err)
		}
		if g == 3 {
			midOff = f.Size()
			midDig = chain(recs[:40])
			midCount = 40
		}
	}

	var got []record.Record
	info, err := ReplayFromOffset(f, midOff, midDig, func(rec record.Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)-midCount {
		t.Fatalf("suffix replay saw %d records, want %d", len(got), len(recs)-midCount)
	}
	for i, rec := range got {
		want := recs[midCount+i]
		if string(rec.Key) != string(want.Key) || rec.Ts != want.Ts {
			t.Fatalf("suffix record %d: got %s@%d want %s@%d", i, rec.Key, rec.Ts, want.Key, want.Ts)
		}
	}
	if info.Digest != chain(recs) {
		t.Fatalf("suffix digest %s != chain over the whole log %s", info.Digest, chain(recs))
	}
	if info.CommittedSize != f.Size() {
		t.Fatalf("committed size %d != file size %d", info.CommittedSize, f.Size())
	}

	// The same offset with a different base digest yields a different
	// final digest: the chain binds the suffix to its exact prefix, so a
	// caller comparing against the attested digest detects the swap.
	wrong, err := ReplayFromOffset(f, midOff, hashutil.Hash{}, func(record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Digest == chain(recs) {
		t.Fatal("suffix digest ignores the prefix it chains from")
	}

	// A tampered byte inside the suffix is corruption, not a torn tail.
	raw := append([]byte(nil), f.Bytes()...)
	raw[midOff+20] ^= 0x01
	tf, _ := fs.Create("tampered")
	if _, err := tf.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	_, err = ReplayFromOffset(tf, midOff, midDig, func(record.Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered suffix: %v, want ErrCorrupt", err)
	}

	// An offset past the end is rejected outright.
	if _, err := ReplayFromOffset(f, f.Size()+1, midDig, func(record.Record) error { return nil }); err == nil {
		t.Fatal("offset past EOF accepted")
	}
}
