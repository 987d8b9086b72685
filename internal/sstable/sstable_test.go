package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"elsm/internal/crypto"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

func buildTable(t *testing.T, recs []record.Record, tr BlockTransform) (*Table, vfs.File, Meta) {
	t.Helper()
	fs := vfs.NewMem()
	f, err := fs.Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, BuilderOptions{BlockSize: 256, Transform: tr, FileNum: 7})
	for _, rec := range recs {
		if err := b.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(f, 7, &FileSource{F: f, Transform: tr})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, f, meta
}

func seqRecords(n, versions int) []record.Record {
	var out []record.Record
	ts := uint64(n*versions + 1)
	for i := 0; i < n; i++ {
		for v := 0; v < versions; v++ {
			ts--
			out = append(out, record.Record{
				Key:   []byte(fmt.Sprintf("key%05d", i)),
				Ts:    ts,
				Kind:  record.KindSet,
				Value: []byte(fmt.Sprintf("val-%d-%d", i, v)),
				Proof: []byte{0xaa, 0xbb},
			})
		}
	}
	return out
}

func TestBuildOpenRoundTrip(t *testing.T) {
	recs := seqRecords(500, 1)
	tbl, _, meta := buildTable(t, recs, nil)
	if tbl.NumEntries() != 500 {
		t.Fatalf("entries = %d", tbl.NumEntries())
	}
	if meta.NumEntries != 500 || string(meta.Smallest) != "key00000" || string(meta.Largest) != "key00499" {
		t.Fatalf("meta = %+v", meta)
	}
	if tbl.NumBlocks() < 2 {
		t.Fatalf("expected multiple blocks, got %d", tbl.NumBlocks())
	}
	for i, want := range recs {
		got, ok, err := tbl.Get(want.Key, record.MaxTs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got.Value, want.Value) || !bytes.Equal(got.Proof, want.Proof) {
			t.Fatalf("record %d: got %+v ok=%v", i, got, ok)
		}
	}
}

func TestGetAbsentKeys(t *testing.T) {
	recs := seqRecords(100, 1)
	tbl, _, _ := buildTable(t, recs, nil)
	for _, k := range []string{"key00000x", "a", "zzz", "key-1"} {
		if _, ok, err := tbl.Get([]byte(k), record.MaxTs); err != nil || ok {
			t.Fatalf("absent key %q: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestGetVersions(t *testing.T) {
	recs := seqRecords(50, 4)
	tbl, _, _ := buildTable(t, recs, nil)
	// Key 10's versions: the 4 records at indices 40..43, timestamps
	// descending from the sequence.
	key := []byte("key00010")
	newest, ok, err := tbl.Get(key, record.MaxTs)
	if err != nil || !ok {
		t.Fatalf("get newest: %v %v", ok, err)
	}
	// Historical query below newest ts hits an older version.
	older, ok, err := tbl.Get(key, newest.Ts-1)
	if err != nil || !ok {
		t.Fatalf("get older: %v %v", ok, err)
	}
	if older.Ts >= newest.Ts {
		t.Fatalf("older.Ts %d >= newest.Ts %d", older.Ts, newest.Ts)
	}
	// Below the oldest version: no result.
	oldest := older
	for {
		r, ok, err := tbl.Get(key, oldest.Ts-1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		oldest = r
	}
}

func TestIteratorFullScan(t *testing.T) {
	recs := seqRecords(300, 2)
	tbl, _, _ := buildTable(t, recs, nil)
	it := tbl.Iter()
	it.SeekGE(nil, record.MaxTs)
	n := 0
	var prev record.Record
	for ; it.Valid(); it.Next() {
		rec := it.Record()
		if n > 0 && record.CompareRecords(prev, rec) >= 0 {
			t.Fatalf("order violation at %d", n)
		}
		prev = rec
		n++
	}
	if n != 600 {
		t.Fatalf("scanned %d of 600", n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorSeek(t *testing.T) {
	recs := seqRecords(200, 1)
	tbl, _, _ := buildTable(t, recs, nil)
	it := tbl.Iter()
	it.SeekGE([]byte("key00150"), record.MaxTs)
	if !it.Valid() || string(it.Record().Key) != "key00150" {
		t.Fatalf("seek exact landed at %q", it.Record().Key)
	}
	it.SeekGE([]byte("key00150x"), record.MaxTs)
	if !it.Valid() || string(it.Record().Key) != "key00151" {
		t.Fatalf("seek between landed at %q", it.Record().Key)
	}
	it.SeekGE([]byte("zzz"), record.MaxTs)
	if it.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestSeekWithPrev(t *testing.T) {
	recs := seqRecords(100, 1)
	tbl, _, _ := buildTable(t, recs, nil)

	// Between two keys.
	prev, cur, err := tbl.SeekWithPrev([]byte("key00050x"), record.MaxTs)
	if err != nil {
		t.Fatal(err)
	}
	if prev == nil || string(prev.Key) != "key00050" {
		t.Fatalf("prev = %v", prev)
	}
	if cur == nil || string(cur.Key) != "key00051" {
		t.Fatalf("cur = %v", cur)
	}

	// Before the first key.
	prev, cur, err = tbl.SeekWithPrev([]byte("a"), record.MaxTs)
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil {
		t.Fatalf("prev before first = %v", prev)
	}
	if cur == nil || string(cur.Key) != "key00000" {
		t.Fatalf("cur = %v", cur)
	}

	// Past the last key.
	prev, cur, err = tbl.SeekWithPrev([]byte("zzz"), record.MaxTs)
	if err != nil {
		t.Fatal(err)
	}
	if cur != nil {
		t.Fatalf("cur past end = %v", cur)
	}
	if prev == nil || string(prev.Key) != "key00099" {
		t.Fatalf("prev = %v", prev)
	}
}

func TestLast(t *testing.T) {
	recs := seqRecords(77, 1)
	tbl, _, _ := buildTable(t, recs, nil)
	last, err := tbl.Last()
	if err != nil || string(last.Key) != "key00076" {
		t.Fatalf("last = %q err=%v", last.Key, err)
	}
}

func TestOutOfOrderAddRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	b := NewBuilder(f, BuilderOptions{})
	if err := b.Add(record.Record{Key: []byte("b"), Ts: 1, Kind: record.KindSet}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(record.Record{Key: []byte("a"), Ts: 1, Kind: record.KindSet}); err == nil {
		t.Fatal("out-of-order key accepted")
	}
	if err := b.Add(record.Record{Key: []byte("b"), Ts: 1, Kind: record.KindSet}); err == nil {
		t.Fatal("duplicate (key, ts) accepted")
	}
	if err := b.Add(record.Record{Key: []byte("b"), Ts: 2, Kind: record.KindSet}); err == nil {
		t.Fatal("ascending ts within key accepted")
	}
}

func TestEmptyTableRejected(t *testing.T) {
	fs := vfs.NewMem()
	f, _ := fs.Create("t.sst")
	b := NewBuilder(f, BuilderOptions{})
	if _, err := b.Finish(); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	recs := seqRecords(10, 1)
	_, f, _ := buildTable(t, recs, nil)
	// Destroy the magic.
	f.WriteAt([]byte{0, 0, 0, 0, 0, 0, 0, 0}, f.Size()-8)
	if _, err := Open(f, 7, &FileSource{F: f}); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestEncryptedBlocks(t *testing.T) {
	mk, err := crypto.NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	tr := &testSealer{bc: crypto.NewBlock(mk)}
	recs := seqRecords(200, 1)
	tbl, f, _ := buildTable(t, recs, tr)
	for i := 0; i < len(recs); i += 7 {
		want := recs[i]
		got, ok, err := tbl.Get(want.Key, record.MaxTs)
		if err != nil || !ok || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("encrypted get %q: %v %v", want.Key, ok, err)
		}
	}
	// Ciphertext must not contain plaintext values.
	raw := f.Bytes()
	if bytes.Contains(raw, []byte("val-0-0")) {
		t.Fatal("plaintext leaked into encrypted table")
	}
	// Tampering with a data block must surface on read.
	raw[10] ^= 0xFF
	if _, _, err := tbl.Get(recs[0].Key, record.MaxTs); err == nil {
		t.Fatal("tampered encrypted block read succeeded")
	}
}

type testSealer struct{ bc *crypto.BlockCipher }

func (s *testSealer) Seal(id uint64, p []byte) []byte { return s.bc.EncryptBlock(id, p) }
func (s *testSealer) Open(id uint64, c []byte) ([]byte, error) {
	return s.bc.DecryptBlock(id, c)
}

func TestDecodeBlockRejectsGarbage(t *testing.T) {
	if _, err := DecodeBlock([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("garbage block decoded")
	}
}
