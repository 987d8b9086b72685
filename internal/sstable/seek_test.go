package sstable

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"elsm/internal/record"
)

// hostileSource is the untrusted host as a BlockSource. It hands out a
// private copy of each block and remembers it, so the test can scribble over
// every block a lookup saw once the lookup has returned; it counts the reads
// of each block; and the second read of a block within one lookup returns
// different bytes than the first — the host changing a block between two
// looks at it.
type hostileSource struct {
	src   FileSource
	given [][]byte
	reads map[int]int
}

func (s *hostileSource) ReadBlock(fileNum uint64, idx int, off, length int64) ([]byte, error) {
	b, err := s.src.ReadBlock(fileNum, idx, off, length)
	if err != nil {
		return nil, err
	}
	if s.reads[idx]++; s.reads[idx] > 1 {
		for i := range b {
			b[i] = 0xff
		}
	}
	s.given = append(s.given, b)
	return b, nil
}

// endLookup scribbles over every block handed out since the last call and
// reports the most often any one block was read.
func (s *hostileSource) endLookup() (maxReads int) {
	for _, b := range s.given {
		for i := range b {
			b[i] = 0xff
		}
	}
	for _, n := range s.reads {
		maxReads = max(maxReads, n)
	}
	s.given, s.reads = nil, map[int]int{}
	return maxReads
}

func sameRecord(got *record.Record, want *record.Record) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return bytes.Equal(got.Key, want.Key) && got.Ts == want.Ts && got.Kind == want.Kind &&
		bytes.Equal(got.Value, want.Value) && bytes.Equal(got.Proof, want.Proof)
}

// TestSeekCopiesWitnessesAndReadsBlocksOnce extends the iterator-contract
// test to the point-read entry points. Whatever the seek returns must be a
// copy: it is intact after the host has overwritten every block the lookup
// read. And a lookup must read each block at most once, so no decision can
// rest on one version of a block and the returned bytes on another. Seek
// targets cover every record, the gap before it, and both table edges, so
// in-block hits and boundary misses (predecessor in the previous block) are
// all exercised.
func TestSeekCopiesWitnessesAndReadsBlocksOnce(t *testing.T) {
	recs := seqRecords(150, 2)
	tbl, f, _ := buildTable(t, recs, nil)
	src := &hostileSource{src: FileSource{F: f}, reads: map[int]int{}}
	tbl.source = src
	if tbl.NumBlocks() < 10 {
		t.Fatalf("only %d blocks", tbl.NumBlocks())
	}
	at := func(i int) *record.Record {
		if i < 0 || i >= len(recs) {
			return nil
		}
		return &recs[i]
	}
	check := func(key []byte, ts uint64) {
		t.Helper()
		pos := sort.Search(len(recs), func(i int) bool { return record.Compare(recs[i].Key, recs[i].Ts, key, ts) >= 0 })
		prev, cur, err := tbl.SeekWithPrev(key, ts)
		reads := src.endLookup()
		if err != nil {
			t.Fatalf("SeekWithPrev(%q, %d): %v", key, ts, err)
		}
		if reads > 1 {
			t.Fatalf("SeekWithPrev(%q, %d) read a block %d times", key, ts, reads)
		}
		if !sameRecord(prev, at(pos-1)) || !sameRecord(cur, at(pos)) {
			t.Fatalf("SeekWithPrev(%q, %d) = %v, %v after the blocks were overwritten; want %v, %v", key, ts, prev, cur, at(pos-1), at(pos))
		}

		got, ok, err := tbl.Get(key, ts)
		reads = src.endLookup()
		if err != nil || reads > 1 {
			t.Fatalf("Get(%q, %d): err %v, %d reads of one block", key, ts, err, reads)
		}
		want := at(pos)
		if want != nil && !bytes.Equal(want.Key, key) {
			want = nil
		}
		if ok != (want != nil) || (ok && !sameRecord(&got, want)) {
			t.Fatalf("Get(%q, %d) = %v, %v after the blocks were overwritten; want %v", key, ts, got, ok, want)
		}
	}
	for _, r := range recs {
		check(r.Key, r.Ts)
		check(r.Key, record.MaxTs)
		check(append(append([]byte(nil), r.Key...), '~'), record.MaxTs) // the gap after the key
	}
	check([]byte("a"), record.MaxTs)   // before the first record
	check([]byte("zzz"), record.MaxTs) // past the last

	last, err := tbl.Last()
	if reads := src.endLookup(); err != nil || reads > 1 || !sameRecord(&last, at(len(recs)-1)) {
		t.Fatalf("Last = %v, %v (%d reads)", last, err, reads)
	}
}

// TestSeekBadBlock: a block that does not parse fails the lookup cleanly.
func TestSeekBadBlock(t *testing.T) {
	recs := seqRecords(50, 1)
	tbl, f, _ := buildTable(t, recs, nil)
	src := &hostileSource{src: FileSource{F: f}, reads: map[int]int{0: 1, tbl.NumBlocks() - 1: 1}} // first and last block read "again": garbage
	tbl.source = src
	if _, _, err := tbl.SeekWithPrev(recs[0].Key, record.MaxTs); err == nil {
		t.Fatal("SeekWithPrev accepted a garbage block")
	}
	if _, _, err := tbl.Get(recs[0].Key, record.MaxTs); err == nil {
		t.Fatal("Get accepted a garbage block")
	}
	if _, err := tbl.Last(); err == nil {
		t.Fatal("Last accepted a garbage block")
	}
}

// BenchmarkSeekWithPrev times the untrusted half of a point read on a table
// of 100-byte values with 570-byte proofs (about six records per 4 KiB
// block): in-block, where both neighbours sit in the block the index points
// at, and boundary-miss, where the target opens a block and its predecessor
// closes the one before.
func BenchmarkSeekWithPrev(b *testing.B) {
	recs := benchRecords(2000)
	tbl, f := buildBenchTable(b, recs)
	tbl.source = &viewSource{data: f.Bytes()}
	var inBlock, boundary [][]byte
	for bi := 0; bi+1 < tbl.NumBlocks(); bi++ {
		end := sort.Search(len(recs), func(i int) bool { return bytes.Compare(recs[i].Key, tbl.index[bi].lastKey) >= 0 })
		inBlock = append(inBlock, recs[end-1].Key) // the record before the block's last
		boundary = append(boundary, recs[end+1].Key)
	}
	for _, tc := range []struct {
		name string
		keys [][]byte
	}{{"in-block", inBlock}, {"boundary-miss", boundary}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prev, cur, err := tbl.SeekWithPrev(tc.keys[i%len(tc.keys)], record.MaxTs)
				if err != nil || prev == nil || cur == nil {
					b.Fatal(prev, cur, err)
				}
			}
		})
	}
}

// TestScanCursorCopiesAsItPassesAndReadsBlocksOnce is the range-read sibling
// of the test above: a scan seeks the iterator, asks for the record before
// the seek position, and walks on, copying each record as it passes. The
// copies — taken while the view was valid — must equal the table's records
// after the host has overwritten every block it handed out, and no block may
// be requested twice within one such walk: the seek block is not re-read to
// start the walk, the predecessor costs a read only when it lies in the
// block before, and (hostileSource answers a second read of a block with
// garbage) a walk that did re-read would copy garbage.
func TestScanCursorCopiesAsItPassesAndReadsBlocksOnce(t *testing.T) {
	recs := seqRecords(150, 2)
	tbl, f, _ := buildTable(t, recs, nil)
	src := &hostileSource{src: FileSource{F: f}, reads: map[int]int{}}
	tbl.source = src
	var it Iter
	check := func(key []byte, walk int) {
		t.Helper()
		pos := sort.Search(len(recs), func(i int) bool { return record.Compare(recs[i].Key, recs[i].Ts, key, record.MaxTs) >= 0 })
		it.Reset(tbl)
		it.SeekGE(key, record.MaxTs)
		var prev *record.Record
		if view, ok, err := it.SeekPrev(); err != nil {
			t.Fatalf("SeekPrev(%q): %v", key, err)
		} else if ok {
			prev = cloneView(view)
		}
		var got []record.Record
		for ; it.Valid() && len(got) < walk; it.Next() {
			got = append(got, it.Record().Clone())
		}
		if err := it.Close(); err != nil {
			t.Fatalf("walk from %q: %v", key, err)
		}
		if reads := src.endLookup(); reads > 1 {
			t.Fatalf("walk of %d from %q read a block %d times", walk, key, reads)
		}
		if pos > 0 != (prev != nil) || (prev != nil && !sameRecord(prev, &recs[pos-1])) {
			t.Fatalf("SeekPrev(%q) = %v, want record %d", key, prev, pos-1)
		}
		if want := recs[pos:min(pos+walk, len(recs))]; len(got) != len(want) {
			t.Fatalf("walk from %q: %d records, want %d", key, len(got), len(want))
		} else {
			for i := range want {
				if !sameRecord(&got[i], &want[i]) {
					t.Fatalf("walk from %q: record %d = %v after the blocks were overwritten, want %v", key, i, got[i], want[i])
				}
			}
		}
	}
	for i, r := range recs {
		check(r.Key, 1+i%40)
		check(append(append([]byte(nil), r.Key...), '~'), 1+i%40) // the gap after the key
	}
	check([]byte("a"), 10)        // before the first record
	check([]byte("a"), len(recs)) // the whole table
	check([]byte("zzz"), 10)      // past the last: nothing to walk, the last record before it
	check(recs[len(recs)-1].Key, 10)
}

// TestScanCursorErrorIsSticky: a block that fails to read ends the walk, and
// the iterator keeps saying why — it does not start over on the next seek.
func TestScanCursorErrorIsSticky(t *testing.T) {
	recs := seqRecords(100, 1)
	tbl, f, _ := buildTable(t, recs, nil)
	src := &hostileSource{src: FileSource{F: f}, reads: map[int]int{3: 1}} // block 3 already read "once": garbage
	tbl.source = src
	it := tbl.Iter()
	n := 0
	for it.SeekGE(nil, record.MaxTs); it.Valid(); it.Next() {
		n++
	}
	if err := it.Close(); err == nil || n == 0 || n >= len(recs) {
		t.Fatalf("walk over a garbage block: %d records, err %v", n, err)
	}
	it.SeekGE(recs[0].Key, record.MaxTs)
	if _, _, err := it.SeekPrev(); it.Valid() || it.Close() == nil || err == nil {
		t.Fatal("the iterator forgot its error")
	}
}

// FuzzScanCursorBlock feeds arbitrary bytes to viewRecordAt, the one decoder
// every block the host hands over goes through: it must never panic, and a
// record it accepts lies wholly inside the input.
func FuzzScanCursorBlock(f *testing.F) {
	recs := seqRecords(3, 2)
	var block []byte
	for _, r := range recs {
		block = append(block, byte(r.Kind))
		block = binary.AppendUvarint(block, uint64(len(r.Key)))
		block = append(block, r.Key...)
		block = binary.BigEndian.AppendUint64(block, r.Ts)
		block = binary.AppendUvarint(block, uint64(len(r.Value)))
		block = append(block, r.Value...)
		block = binary.AppendUvarint(block, uint64(len(r.Proof)))
		block = append(block, r.Proof...)
	}
	f.Add(block, 0)
	f.Add(block[:len(block)-1], 0)
	f.Add(block, 7)
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, 0) // key length beyond any input
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, data []byte, p int) {
		if p < 0 {
			return
		}
		rec, n, err := viewRecordAt(data, p)
		if err != nil {
			return
		}
		if n <= 0 || p+n > len(data) {
			t.Fatalf("consumed %d bytes at %d of %d", n, p, len(data))
		}
		if len(rec.Key)+len(rec.Value)+len(rec.Proof)+1+8+3 > n {
			t.Fatalf("record fields (%d+%d+%d bytes) exceed the %d consumed", len(rec.Key), len(rec.Value), len(rec.Proof), n)
		}
		// Walking on from the accepted record stays in bounds too.
		for q := p + n; q < len(data); {
			_, m, err := viewRecordAt(data, q)
			if err != nil {
				break
			}
			if m <= 0 || q+m > len(data) {
				t.Fatalf("consumed %d bytes at %d of %d", m, q, len(data))
			}
			q += m
		}
	})
}
