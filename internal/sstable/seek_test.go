package sstable

import (
	"bytes"
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
