package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// fakeProofs is a ProofAppender whose proof for a record is a function of
// the record alone, so a table built through it can be compared with one
// built from records that already carry those proofs.
type fakeProofs struct{ fail []byte }

func fakeProof(rec record.Record) []byte {
	// Long enough to need a two-byte length varint, with the record mixed in.
	p := bytes.Repeat([]byte{byte(rec.Ts)}, 130+int(rec.Ts%7))
	return append(p, rec.Key...)
}

func (f fakeProofs) ProofLen(rec record.Record) (int, error) {
	if f.fail != nil && bytes.Equal(rec.Key, f.fail) {
		return 0, errors.New("no proof")
	}
	return len(fakeProof(rec)), nil
}

func (f fakeProofs) AppendProof(dst []byte, rec record.Record) ([]byte, error) {
	return append(dst, fakeProof(rec)...), nil
}

// TestBuilderProofAppender checks that proofs appended in place produce the
// same file, byte for byte, as records that carry their proofs, and that a
// missing proof fails the build.
func TestBuilderProofAppender(t *testing.T) {
	build := func(recs []record.Record, proofs ProofAppender) ([]byte, error) {
		f, err := vfs.NewMem().Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(f, BuilderOptions{BlockSize: 512, FileNum: 3, Proofs: proofs})
		for _, rec := range recs {
			if err := b.Add(rec); err != nil {
				return nil, err
			}
		}
		if _, err := b.Finish(); err != nil {
			return nil, err
		}
		return f.Bytes(), nil
	}
	bare := seqRecords(300, 2)
	carrying := make([]record.Record, len(bare))
	for i := range bare {
		bare[i].Proof = []byte("stale: must be ignored")
		carrying[i] = bare[i]
		carrying[i].Proof = fakeProof(bare[i])
	}
	want, err := build(carrying, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := build(bare, fakeProofs{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("table built through a ProofAppender differs from one built from proof-carrying records")
	}
	if _, err := build(bare, fakeProofs{fail: bare[100].Key}); err == nil {
		t.Fatal("a record without a proof was built into a table")
	}
}

// scribbleSource hands out a private copy of each block and overwrites the
// previous one when the next is asked for — what a hostile host, a recycled
// read buffer or an unmapped view may do to bytes an iterator moved past.
type scribbleSource struct {
	src  FileSource
	last []byte
}

func (s *scribbleSource) ReadBlock(fileNum uint64, idx int, off, length int64) ([]byte, error) {
	for i := range s.last {
		s.last[i] = 0xff
	}
	b, err := s.src.ReadBlock(fileNum, idx, off, length)
	s.last = b
	return b, err
}

// TestIteratorRecordsAreViews pins the record.Iterator contract the cursor
// implements: Record's slices alias the current block — no per-record copy —
// so they stay intact only until the iterator moves on, and a caller that
// clones before Next keeps good bytes whatever happens to the block after.
func TestIteratorRecordsAreViews(t *testing.T) {
	recs := seqRecords(200, 2)
	tbl, f, _ := buildTable(t, recs, nil)
	src := &scribbleSource{src: FileSource{F: f}}
	tbl.source = src
	it := tbl.Iter()
	it.SeekGE(nil, record.MaxTs)
	var kept []record.Record
	var firstView record.Record
	for i := 0; it.Valid(); i++ {
		view := it.Record()
		if i == 0 {
			firstView = view
		}
		kept = append(kept, view.Clone())
		it.Next()
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(recs) {
		t.Fatalf("iterated %d of %d records", len(kept), len(recs))
	}
	for i, want := range recs {
		got := kept[i]
		if !bytes.Equal(got.Key, want.Key) || got.Ts != want.Ts || !bytes.Equal(got.Value, want.Value) || !bytes.Equal(got.Proof, want.Proof) {
			t.Fatalf("record %d: cloned %+v, want %+v", i, got, want)
		}
	}
	if bytes.Equal(firstView.Key, recs[0].Key) {
		t.Fatal("the first record's view survived its block being overwritten: Record() copies")
	}
}

// TestIteratorSeekAcrossBlocks seeks to every record, to the gap before it
// and past the end.
func TestIteratorSeekAcrossBlocks(t *testing.T) {
	recs := seqRecords(120, 3)
	tbl, _, _ := buildTable(t, recs, nil)
	it := tbl.Iter()
	for i, want := range recs {
		it.SeekGE(want.Key, want.Ts)
		if !it.Valid() || record.CompareRecords(it.Record(), want) != 0 {
			t.Fatalf("seek to record %d landed elsewhere", i)
		}
		it.SeekGE(want.Key, want.Ts+1) // just before it in record order
		if i > 0 && string(recs[i-1].Key) == string(want.Key) && recs[i-1].Ts == want.Ts+1 {
			continue
		}
		if !it.Valid() || record.CompareRecords(it.Record(), want) != 0 {
			t.Fatalf("seek before record %d landed elsewhere", i)
		}
	}
	it.SeekGE([]byte("zzz"), record.MaxTs)
	if it.Valid() {
		t.Fatal("seek past the end is valid")
	}
}

// TestIteratorStopsOnCorruptBlock flips a frame length inside a block: the
// iterator must end there and report it, never panic or read past the block.
func TestIteratorStopsOnCorruptBlock(t *testing.T) {
	recs := seqRecords(50, 1)
	tbl, f, _ := buildTable(t, recs, nil)
	data := append([]byte(nil), f.Bytes()...)
	// The first record's key-length varint sits at offset 1.
	data[1] = 0xfe
	g, err := vfs.NewMem().Create("bad.sst")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Append(data); err != nil {
		t.Fatal(err)
	}
	tbl.source = &FileSource{F: g}
	it := tbl.Iter()
	it.SeekGE(nil, record.MaxTs)
	if it.Valid() {
		t.Fatal("iterator valid over a corrupt first record")
	}
	if err := it.Close(); !errors.Is(err, ErrBadTable) {
		t.Fatalf("Close = %v, want ErrBadTable", err)
	}
}

func benchRecords(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Key:   []byte(fmt.Sprintf("user%012d", i)),
			Ts:    uint64(i + 1),
			Kind:  record.KindSet,
			Value: make([]byte, 100),
			Proof: make([]byte, 570), // a proof in a 50 000-leaf run
		}
	}
	return recs
}

// buildBenchTable writes recs into a table of default-sized blocks.
func buildBenchTable(b *testing.B, recs []record.Record) (*Table, vfs.File) {
	b.Helper()
	f, err := vfs.NewMem().Create("b.sst")
	if err != nil {
		b.Fatal(err)
	}
	bl := NewBuilder(f, BuilderOptions{FileNum: 1})
	for _, rec := range recs {
		if err := bl.Add(rec); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := bl.Finish(); err != nil {
		b.Fatal(err)
	}
	tbl, err := Open(f, 1, &FileSource{F: f})
	if err != nil {
		b.Fatal(err)
	}
	return tbl, f
}

// BenchmarkBuilderAdd builds tables of proof-carrying records: ns and
// allocations per record added.
func BenchmarkBuilderAdd(b *testing.B) {
	recs := benchRecords(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(recs) {
		bl := NewBuilder(&sinkFile{}, BuilderOptions{FileNum: 1})
		for _, rec := range recs {
			if err := bl.Add(rec); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bl.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIter walks a table record by record, as a compaction input:
// ns and allocations per record.
func BenchmarkTableIter(b *testing.B) {
	recs := benchRecords(2000)
	tbl, f := buildBenchTable(b, recs)
	tbl.source = &viewSource{data: f.Bytes()}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int
	for i := 0; i < b.N; i += len(recs) {
		it := tbl.Iter()
		for it.SeekGE(nil, record.MaxTs); it.Valid(); it.Next() {
			sum += len(it.Record().Key)
		}
	}
	sinkInt = sum
}

var sinkInt int

// sinkFile swallows what a Builder appends, so that BenchmarkBuilderAdd
// times the builder and not a file growing under it.
type sinkFile struct {
	vfs.File
	n int64
}

func (f *sinkFile) Append(p []byte) (int, error) {
	f.n += int64(len(p))
	return len(p), nil
}

// viewSource serves blocks as slices of the whole file, like the engine's
// compaction-pinned views.
type viewSource struct{ data []byte }

func (v *viewSource) ReadBlock(_ uint64, _ int, off, length int64) ([]byte, error) {
	return v.data[off : off+length], nil
}
