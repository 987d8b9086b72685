package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
)

// tableFilters reads a table image's filter count and the in-enclave bytes
// of its index (each block's last key and its 24 fixed bytes), from the
// footer and blocks the sstable package doc lays out.
func tableFilters(t *testing.T, img []byte) (filters, blocks, indexBytes int) {
	t.Helper()
	ft := img[len(img)-48:]
	filterOff := binary.BigEndian.Uint64(ft[0:8])
	ib := img[binary.BigEndian.Uint64(ft[16:24]):]
	blocks = int(binary.BigEndian.Uint32(ib))
	for i, p := 0, 4; i < blocks; i++ {
		klen, w := binary.Uvarint(ib[p:])
		indexBytes += int(klen) + 24
		p += w + int(klen) + 24
	}
	return int(binary.BigEndian.Uint32(img[filterOff:])), blocks, indexBytes
}

// countingSource counts the data blocks a table reads.
type countingSource struct {
	sstable.FileSource
	reads int
}

func (c *countingSource) ReadBlock(fileNum uint64, blockIdx int, off, length int64) ([]byte, error) {
	c.reads++
	return c.FileSource.ReadBlock(fileNum, blockIdx, off, length)
}

// openImage opens a table image as the engine would, through src.
func openImage(t *testing.T, img []byte, src *countingSource) *sstable.Table {
	t.Helper()
	f, err := vfs.NewMem().Create("t.sst")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(img); err != nil {
		t.Fatal(err)
	}
	src.F = f
	tbl, err := sstable.Open(f, 1, src)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestP2TablesCarryNoFilter: a P2 read proves a key absent with the two
// records around it (§5.5.1), so it reads the block whatever a Bloom filter
// says. No P2 table carries one — not after a flush, a compaction merged in
// two key-range parts, or a bulk load — and the enclave is charged for the
// index alone. The unsecured store's tables keep one filter per block, and
// their raw Get of an absent key reads no block.
func TestP2TablesCarryNoFilter(t *testing.T) {
	put300 := func(kv KV, round int) {
		t.Helper()
		ops := make([]BatchOp, 300)
		for i := range ops {
			ops[i] = BatchOp{Key: []byte(fmt.Sprintf("key%05d", 2*i)), Value: []byte(fmt.Sprintf("round%d-value-%040d", round, i))}
		}
		if _, err := kv.Commit(nil, ops); err != nil {
			t.Fatal(err)
		}
	}
	config := func(fs vfs.FS) Config {
		cfg := smallCfg(fs)
		cfg.MemtableSize = 1 << 20 // every flush is an explicit one
		cfg.LevelBase = 1 << 20    // and every compaction
		cfg.Workers = lsm.NewWorkerPool(2)
		return cfg
	}
	filterless := func(stage string, fs *vfs.MemFS) {
		t.Helper()
		tables := tableFiles(t, fs)
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", stage)
		}
		for name, img := range tables {
			filters, blocks, indexBytes := tableFilters(t, img)
			if filters != 0 {
				t.Errorf("%s: %s carries %d filters for %d blocks, want none", stage, name, filters, blocks)
			}
			if got := openImage(t, img, &countingSource{}).MetadataBytes(); got != indexBytes {
				t.Errorf("%s: %s charges the enclave %d metadata bytes, its index is %d", stage, name, got, indexBytes)
			}
		}
	}

	fs := vfs.NewMem()
	s := mustOpenP2(t, config(fs))
	defer s.Close()
	put300(s, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	filterless("flush", fs)
	// The compaction's one input run has several tables and the store two
	// worker tokens, so the job is cut in two parts at a table's first key
	// (TestSplitBounds pins the choice).
	if _, levels := manifestRuns(t, fs); len(levels) < 2 || len(levels[1]) != 1 || len(levels[1][0]) < 2 {
		t.Fatalf("level 1 is %v; the test wants one run of several tables", levels)
	}
	put300(s, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Engine().Compact(1); err != nil {
		t.Fatal(err)
	}
	if st := s.Engine().Stats(); st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	filterless("two-part compaction", fs)

	bulkFS := vfs.NewMem()
	bulk := mustOpenP2(t, config(bulkFS))
	defer bulk.Close()
	recs := make([]record.Record, 2000)
	for i := range recs {
		recs[i] = record.Record{Key: []byte(fmt.Sprintf("key%05d", i)), Ts: uint64(i + 1), Kind: record.KindSet, Value: []byte(fmt.Sprintf("bulk-value-%020d", i))}
	}
	if err := bulk.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	filterless("bulk load", bulkFS)

	rawFS := vfs.NewMem()
	raw, err := OpenUnsecured(config(rawFS))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	put300(raw, 1)
	if err := raw.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, img := range tableFiles(t, rawFS) {
		if filters, blocks, _ := tableFilters(t, img); filters != blocks {
			t.Fatalf("unsecured %s carries %d filters for %d blocks, want one a block", name, filters, blocks)
		}
		src := &countingSource{}
		tbl := openImage(t, img, src)
		it := tbl.Iter()
		it.SeekGE(nil, record.MaxTs)
		first := append([]byte(nil), it.Record().Key...)
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		src.reads = 0
		absent := append(first[:len(first):len(first)], '-') // between the table's first two keys
		if _, ok, err := tbl.Get(absent, record.MaxTs); ok || err != nil {
			t.Fatalf("unsecured %s: Get(%q) = %v, %v", name, absent, ok, err)
		}
		if src.reads != 0 {
			t.Errorf("unsecured %s: an absent-key Get read %d blocks, want none", name, src.reads)
		}
		if _, ok, err := tbl.Get(first, record.MaxTs); !ok || err != nil || src.reads != 1 {
			t.Fatalf("unsecured %s: Get(%q) = %v, %v after %d block reads, want a hit from one", name, first, ok, err, src.reads)
		}
	}
}
