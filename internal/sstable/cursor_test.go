package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"elsm/internal/crypto"
	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// treeProofs is a ProofAppender over a real Merkle tree with one leaf per
// distinct key of recs, cut into groups of 2^k leaves. A key with several
// versions gets the 0x01 chain form, with made-up but well-formed entries.
type treeProofs struct {
	recs   []record.Record
	leaf   []int // per record
	single []bool
	tree   *merkle.Tree
	k      int
	at     int // the record Group located last
	fail   []byte
}

func newTreeProofs(recs []record.Record, k int) *treeProofs {
	p := &treeProofs{recs: recs, k: k}
	var leaves []merkle.Hash
	for i, rec := range recs {
		if i == 0 || !bytes.Equal(rec.Key, recs[i-1].Key) {
			leaves = append(leaves, hashutil.Of(rec.Key))
		}
		p.leaf = append(p.leaf, len(leaves)-1)
	}
	for i := range recs {
		p.single = append(p.single, (i == 0 || p.leaf[i-1] != p.leaf[i]) && (i+1 == len(recs) || p.leaf[i+1] != p.leaf[i]))
	}
	p.tree = merkle.New(leaves)
	p.k = min(k, merkle.Height(len(leaves)))
	return p
}

func (p *treeProofs) Group(rec record.Record) (int, error) {
	if p.fail != nil && bytes.Equal(rec.Key, p.fail) {
		return 0, errors.New("no proof")
	}
	for i := range p.recs {
		if record.CompareRecords(p.recs[i], rec) == 0 {
			p.at = i
			return p.leaf[i] >> p.k, nil
		}
	}
	return 0, errors.New("no such record")
}

func (p *treeProofs) AppendSection(dst []byte) []byte {
	return p.tree.AppendSection(dst, p.k, p.leaf[p.at])
}

func (p *treeProofs) AppendChain(dst []byte) []byte {
	if p.single[p.at] {
		return append(dst, 0)
	}
	newer := 0
	for j := p.at - 1; j >= 0 && p.leaf[j] == p.leaf[p.at]; j-- {
		newer++
	}
	dst = binary.BigEndian.AppendUint16(append(dst, 1), uint16(newer))
	for j := 0; j < newer; j++ {
		dst = binary.BigEndian.AppendUint64(dst, p.recs[p.at-1-j].Ts)
		dst = append(dst, bytes.Repeat([]byte{byte(j)}, hashutil.Size)...)
	}
	return append(dst, bytes.Repeat([]byte{byte(p.at)}, hashutil.Size)...)
}

// proof is the embedded proof a reader must rebuild for record i.
func (p *treeProofs) proof(i int) []byte {
	p.at = i
	chain := p.AppendChain(nil)
	out := binary.BigEndian.AppendUint32(nil, uint32(p.leaf[i]))
	if chain[0] == 0 {
		out = append(out, make([]byte, 2+hashutil.Size)...)
	} else {
		out = append(out, chain[1:]...)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(merkle.PathLen(p.leaf[i], p.tree.NumLeaves())))
	return p.tree.AppendPath(out, p.leaf[i])
}

// buildWithProofs builds recs into a table of blockSize blocks through p.
func buildWithProofs(t testing.TB, recs []record.Record, p ProofAppender, blockSize int) (*Table, vfs.File, error) {
	f, err := vfs.NewMem().Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(f, BuilderOptions{BlockSize: blockSize, FileNum: 3, Proofs: p})
	for _, rec := range recs {
		if err := b.Add(rec); err != nil {
			return nil, nil, err
		}
	}
	if _, err := b.Finish(); err != nil {
		return nil, nil, err
	}
	tbl, err := Open(f, 3, &FileSource{F: f})
	return tbl, f, err
}

// TestBuilderProofAppender builds tables through a ProofAppender at several
// group sizes, with groups that fit a block and groups that spill over
// several. Every block must carry one section and hold records of one group
// only, its section's first leaf that of its first record; every read path
// must hand back records whose proofs are rebuilt exactly; and a record with
// no proof must fail the build.
func TestBuilderProofAppender(t *testing.T) {
	recs := seqRecords(300, 2)
	for i := range recs {
		if i%3 == 0 {
			recs[i].Proof = []byte("stale: must be ignored")
		}
	}
	recs = append(recs[:100:100], seqRecordsFrom(100, 200, 1)...) // single versions too
	for _, k := range []int{0, 2, 4, 9} {
		p := newTreeProofs(recs, k)
		tbl, _, err := buildWithProofs(t, recs, p, 512)
		if err != nil {
			t.Fatal(err)
		}
		spilled := false
		for bi := 0; bi < tbl.NumBlocks(); bi++ {
			data, err := tbl.block(bi, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := newCursor(data)
			if err != nil {
				t.Fatal(err)
			}
			s, err := merkle.ParseSection(c.section)
			if err != nil {
				t.Fatalf("k=%d block %d: %v", k, bi, err)
			}
			for ok, err := c.step(); ok || err != nil; ok, err = c.step() {
				if err != nil {
					t.Fatal(err)
				}
				i := sort.Search(len(recs), func(i int) bool { return record.CompareRecords(recs[i], c.rec) >= 0 })
				if c.ord == 0 && p.leaf[i] != s.First() {
					t.Fatalf("k=%d block %d: section starts at leaf %d, its first record is leaf %d", k, bi, s.First(), p.leaf[i])
				}
				if p.leaf[i]>>p.k != s.First()>>p.k {
					t.Fatalf("k=%d block %d holds leaves of two groups", k, bi)
				}
				if got := Clone(c.rec, c.proof()); !bytes.Equal(got.Proof, p.proof(i)) {
					t.Fatalf("k=%d record %d: rebuilt proof differs", k, i)
				}
			}
			spilled = spilled || (bi > 0 && s.First()&(1<<p.k-1) != 0)
		}
		if k == 2 && !spilled {
			t.Fatal("no group spilled over two blocks")
		}
		for i, want := range recs {
			if got, ok, err := tbl.Get(want.Key, want.Ts); err != nil || !ok || !bytes.Equal(got.Proof, p.proof(i)) {
				t.Fatalf("k=%d Get of record %d: ok %v, err %v, proof rebuilt %v", k, i, ok, err, ok && bytes.Equal(got.Proof, p.proof(i)))
			}
			prev, cur, err := tbl.SeekWithPrev(want.Key, want.Ts)
			if err != nil || !bytes.Equal(cur.Proof, p.proof(i)) || (i > 0 && !bytes.Equal(prev.Proof, p.proof(i-1))) {
				t.Fatalf("k=%d SeekWithPrev to record %d: proofs differ (%v)", k, i, err)
			}
			it := tbl.Iter()
			it.SeekGE(want.Key, want.Ts)
			if view, proof, ok, err := it.SeekPrev(); err != nil || ok != (i > 0) || (ok && !bytes.Equal(Clone(view, proof).Proof, p.proof(i-1))) {
				t.Fatalf("k=%d SeekPrev at record %d: ok %v, err %v", k, i, ok, err)
			}
		}
		if last, err := tbl.Last(); err != nil || !bytes.Equal(last.Proof, p.proof(len(recs)-1)) {
			t.Fatalf("k=%d Last: %v", k, err)
		}
	}
	p := newTreeProofs(recs, 2)
	p.fail = recs[150].Key
	if _, _, err := buildWithProofs(t, recs, p, 512); err == nil {
		t.Fatal("a record without a proof was built into a table")
	}
}

// TestVersion1Refused: a table whose footer names format version 1 — one
// root path per record — does not open, and the error says which version.
func TestVersion1Refused(t *testing.T) {
	_, f, _ := buildTable(t, seqRecords(20, 1), nil)
	img := append([]byte(nil), f.Bytes()...)
	binary.BigEndian.PutUint64(img[len(img)-8:], Magic&^0xffff|1)
	f = memFile(t, img)
	_, err := Open(f, 7, &FileSource{F: f})
	if !errors.Is(err, ErrBadTable) || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("Open of a version-1 table = %v, want ErrBadTable naming format version 1", err)
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

// TestReusedBuilderWritesFreshBytes builds tables of alternating sizes and
// modes — P2 proofs through a ProofAppender, P1 sealed blocks, plain — with
// one Builder, Reset between them, and requires each table's bytes and Meta
// to be a fresh NewBuilder's. After Reset(nil, BuilderOptions{}) the builder
// holds no file, proof appender or transform of the tables it built.
func TestReusedBuilderWritesFreshBytes(t *testing.T) {
	mk, err := crypto.NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer := &testSealer{bc: crypto.NewBlock(mk)}
	large, small := seqRecords(900, 2), seqRecordsFrom(40, 90, 1)
	build := func(b *Builder, recs []record.Record, mode string) ([]byte, Meta) {
		f, err := vfs.NewMem().Create("t.sst")
		if err != nil {
			t.Fatal(err)
		}
		opts := BuilderOptions{BlockSize: 512, FileNum: 9}
		switch mode {
		case "P1":
			opts.Transform = sealer
		case "P2":
			opts.Proofs = newTreeProofs(recs, 3)
		}
		if b == nil {
			b = NewBuilder(f, opts)
		} else {
			b.Reset(f, opts)
		}
		for _, rec := range recs {
			if err := b.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		meta, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return f.Bytes(), meta
	}
	reused := new(Builder)
	for _, step := range []struct {
		recs []record.Record
		mode string
	}{{large, "P2"}, {small, "P1"}, {large, "P1"}, {small, "P2"}, {large, "plain"}, {small, "plain"}, {small, "P2"}} {
		wantBytes, wantMeta := build(nil, step.recs, step.mode)
		gotBytes, gotMeta := build(reused, step.recs, step.mode)
		if !bytes.Equal(gotBytes, wantBytes) || fmt.Sprint(gotMeta) != fmt.Sprint(wantMeta) {
			t.Fatalf("%s table of %d records: a reused builder wrote %d bytes (%+v), a fresh one %d (%+v)",
				step.mode, len(step.recs), len(gotBytes), gotMeta, len(wantBytes), wantMeta)
		}
	}
	reused.Reset(nil, BuilderOptions{})
	if reused.f != nil || reused.opts.Proofs != nil || reused.opts.Transform != nil {
		t.Fatal("a reset builder still references the last table's file, proofs or transform")
	}
}
