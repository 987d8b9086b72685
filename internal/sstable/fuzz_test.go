package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// footerOnly is a 48-byte file that is nothing but a footer whose index span
// is (indexOff, indexLen): what a host hands Open to make it allocate.
func footerOnly(indexOff, indexLen uint64) []byte {
	ft := make([]byte, 48)
	binary.BigEndian.PutUint64(ft[16:], indexOff)
	binary.BigEndian.PutUint64(ft[24:], indexLen)
	binary.BigEndian.PutUint64(ft[40:], Magic)
	return ft
}

// memFile is data as an in-memory vfs.File.
func memFile(t testing.TB, data []byte) vfs.File {
	t.Helper()
	f, err := vfs.NewMem().Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(data); err != nil {
		t.Fatal(err)
	}
	return f
}

// allocated runs fn and returns the bytes the process allocated meanwhile.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenBoundsFooterAndIndexByFileSize: a footer or index entry that names
// bytes outside the file is ErrBadTable before anything is allocated for it.
// At the parent the first footer panicked Open with "makeslice: len out of
// range" and the second allocated 8 GiB before answering EOF.
func TestOpenBoundsFooterAndIndexByFileSize(t *testing.T) {
	for _, indexLen := range []uint64{1 << 62, 8 << 30, 1 << 63} {
		f := memFile(t, footerOnly(0, indexLen))
		var err error
		if n := allocated(func() { _, err = Open(f, 1, &FileSource{F: f}) }); n > 1<<20 {
			t.Errorf("indexLen %d: Open allocated %d bytes for a 48-byte file", indexLen, n)
		}
		if !errors.Is(err, ErrBadTable) {
			t.Errorf("indexLen %d: Open = %v, want ErrBadTable", indexLen, err)
		}
	}
	// A well-formed table whose first index entry claims a block past the
	// end of the file (the length ReadBlock would allocate).
	_, f, _ := buildTable(t, seqRecords(40, 1), nil)
	img := append([]byte(nil), f.Bytes()...)
	ft := img[len(img)-48:]
	indexOff := binary.BigEndian.Uint64(ft[16:])
	klen, w := binary.Uvarint(img[indexOff+4:])
	lengthAt := indexOff + 4 + uint64(w) + klen + 16
	binary.BigEndian.PutUint64(img[lengthAt:], 1<<40)
	f = memFile(t, img)
	if _, err := Open(f, 7, &FileSource{F: f}); !errors.Is(err, ErrBadTable) {
		t.Errorf("block length past the file: Open = %v, want ErrBadTable", err)
	}
}

// FuzzOpenTable hands Open arbitrary file bytes — the host wrote them — and
// drives every reader over whatever opens. Nothing may panic; memory stays
// within a constant factor of the input; and a table that opens iterates in
// strictly ascending (key asc, ts desc) order or stops with an error.
func FuzzOpenTable(f *testing.F) {
	f.Add(footerOnly(0, 1<<62))
	f.Add(footerOnly(0, 8<<30))
	f.Add(footerOnly(0, 0))
	for _, versions := range []int{1, 3} {
		fs := vfs.NewMem()
		tf, err := fs.Create("seed.sst")
		if err != nil {
			f.Fatal(err)
		}
		b := NewBuilder(tf, BuilderOptions{BlockSize: 128})
		for _, rec := range seqRecords(12, versions) {
			if err := b.Add(rec); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := b.Finish(); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), tf.Bytes()...))
		// The same table without its filters: its Get reads every block.
		f.Add(withFilterCount(tf.Bytes(), 0))
	}
	// A P2 table carries no filters: the first of the section seeds.
	for _, seed := range sectionSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file := memFile(t, data)
		n := allocated(func() {
			tbl, err := Open(file, 1, &FileSource{F: file})
			if err != nil {
				return
			}
			it := tbl.Iter()
			it.SeekGE(nil, record.MaxTs)
			var prev record.Record
			for ; it.Valid(); it.Next() {
				rec := it.Record()
				if prev.Kind != 0 && record.Compare(prev.Key, prev.Ts, rec.Key, rec.Ts) >= 0 {
					t.Fatalf("iterated (%q, %d) after (%q, %d)", rec.Key, rec.Ts, prev.Key, prev.Ts)
				}
				prev = rec.Clone()
				prev.Kind = record.KindSet // any non-zero: "there is a predecessor"
			}
			it.Close()
			it.SeekGE([]byte("key"), record.MaxTs)
			if view, proof, ok, _ := it.SeekPrev(); ok {
				Clone(view, proof)
			}
			tbl.SeekWithPrev(prev.Key, prev.Ts)
			tbl.SeekWithPrev([]byte("key"), record.MaxTs)
			tbl.Get(prev.Key, record.MaxTs)
			tbl.Last()
		})
		// Index, filters if any, one block at a time and one clone per record: a
		// small multiple of the file, never a number the file declares.
		if limit := uint64(64*len(data) + 1<<20); n > limit {
			t.Fatalf("%d bytes allocated reading a %d-byte file", n, len(data))
		}
	})
}

// TestIterStopsAtRecordsOutOfOrder: a host that swaps two keys inside one
// block leaves the footer, the index and both block ends as they were, so
// only a record-by-record check sees it. The iterator yields the ascending
// prefix and stops with ErrBadTable; it never hands out a record that does
// not follow the one before.
func TestIterStopsAtRecordsOutOfOrder(t *testing.T) {
	_, f, _ := buildTable(t, seqRecords(40, 1), nil)
	img := append([]byte(nil), f.Bytes()...)
	a, b := bytes.Index(img, []byte("key00001")), bytes.Index(img, []byte("key00002"))
	copy(img[a:], "key00002")
	copy(img[b:], "key00001")
	f = memFile(t, img)
	tbl, err := Open(f, 1, &FileSource{F: f})
	if err != nil {
		t.Fatal(err)
	}
	it := tbl.Iter()
	var got []string
	for it.SeekGE(nil, record.MaxTs); it.Valid(); it.Next() {
		got = append(got, string(it.Record().Key))
	}
	if err := it.Close(); !errors.Is(err, ErrBadTable) || len(got) != 2 || got[1] != "key00002" {
		t.Fatalf("iterated %q, Close = %v; want key00000, key00002, then ErrBadTable", got, err)
	}
}

// sectionSeeds are tables with group sections, the honest one first, then
// three lies about its first block's section: a section cut short (its length
// says fewer bytes than the records after it need), a k whose node count
// disagrees with (k, leaves), and a first leaf past the leaf count.
func sectionSeeds(f *testing.F) [][]byte {
	recs := seqRecords(12, 2)
	_, tf, err := buildWithProofs(f, recs, newTreeProofs(recs, 2), 256)
	if err != nil {
		f.Fatal(err)
	}
	honest := tf.Bytes()
	secLen, n := binary.Uvarint(honest[1:])
	w := 1 + n // the section starts after its mark and length
	mutate := func(fn func(img []byte)) []byte {
		img := append([]byte(nil), honest...)
		fn(img)
		return img
	}
	return [][]byte{
		honest,
		mutate(func(img []byte) { binary.PutUvarint(img[1:], secLen-hashutil.Size) }),
		mutate(func(img []byte) { img[w]++ }),       // k
		mutate(func(img []byte) { img[w+2] = 100 }), // first leaf, after a one-byte leaf count of 12
	}
}
