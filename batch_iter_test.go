// Tests for the batched-write and streaming-iterator public API: atomic
// commit semantics across modes and encryption, bounded-memory streaming,
// and batch atomicity under crash/recovery.
package elsm

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/sgx"
	"elsm/internal/ycsb"
)

func TestBatchCommitAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeP2, ModeUnsecured} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := Open(Options{Mode: mode, CacheSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Put([]byte("pre"), []byte("old")); err != nil {
				t.Fatal(err)
			}

			b := s.NewBatch()
			for i := 0; i < 50; i++ {
				b.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%d", i)))
			}
			b.Delete([]byte("pre"))
			if b.Len() != 51 {
				t.Fatalf("Len = %d", b.Len())
			}
			ts, err := b.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if ts != 52 { // 1 pre-put + 51 batch records
				t.Fatalf("commit ts = %d, want 52", ts)
			}
			if b.Len() != 0 {
				t.Fatal("batch not drained after commit")
			}

			// All-or-nothing visibility: every batch record readable, the
			// batched delete applied.
			for i := 0; i < 50; i++ {
				res, err := s.Get([]byte(fmt.Sprintf("key%03d", i)))
				if err != nil || !res.Found {
					t.Fatalf("get key%03d: %v found=%v", i, err, res.Found)
				}
			}
			if res, err := s.Get([]byte("pre")); err != nil || res.Found {
				t.Fatalf("batched delete not applied: %v found=%v", err, res.Found)
			}

			// Iterator and Scan agree on the committed state.
			it := s.Iter([]byte("key"), []byte("kez"))
			n := 0
			for it.Next() {
				if want := fmt.Sprintf("key%03d", n); string(it.Key()) != want {
					t.Fatalf("row %d = %q, want %q", n, it.Key(), want)
				}
				n++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != 50 {
				t.Fatalf("iterated %d rows", n)
			}

			// An empty commit is a no-op; the batch is reusable.
			if ts, err := b.Commit(); err != nil || ts != 0 {
				t.Fatalf("empty commit = %d, %v", ts, err)
			}
			b.Put([]byte("again"), []byte("x"))
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBatchAndIteratorEncrypted(t *testing.T) {
	s, err := Open(Options{Encryption: &EncryptionOptions{Mode: EncryptRange}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.NewBatch()
	for i := 0; i < 40; i++ {
		b.Put([]byte(fmt.Sprintf("user%03d", i)), []byte(fmt.Sprintf("secret%d", i)))
	}
	b.Delete([]byte("user013"))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	it := s.Iter([]byte("user010"), []byte("user020"))
	var keys []string
	for it.Next() {
		var idx int
		if _, err := fmt.Sscanf(string(it.Key()), "user%03d", &idx); err != nil {
			t.Fatalf("unexpected key %q", it.Key())
		}
		if want := fmt.Sprintf("secret%d", idx); string(it.Value()) != want {
			t.Fatalf("value for %q = %q, want %q", it.Key(), it.Value(), want)
		}
		keys = append(keys, string(it.Key()))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 10 { // user010..user020 minus deleted user013
		t.Fatalf("encrypted range streamed %v", keys)
	}
	for _, k := range keys {
		if k == "user013" {
			t.Fatal("batched encrypted delete not applied")
		}
	}

	// Point mode cannot stream ranges: the error surfaces via the iterator.
	p, err := Open(Options{Encryption: &EncryptionOptions{Mode: EncryptPoint}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pit := p.Iter([]byte("a"), []byte("z"))
	if pit.Next() {
		t.Fatal("point-mode iterator yielded a row")
	}
	if err := pit.Close(); err != ErrScanUnsupported {
		t.Fatalf("point-mode iterator err = %v", err)
	}
}

func TestIteratorStreams10kBounded(t *testing.T) {
	// A 10k-record verified range must stream chunk by chunk (many ECalls,
	// each carrying a bounded slice) instead of materializing in one call.
	s, err := Open(Options{geometry: lsm.Geometry{MemtableSize: 1 << 20, TableFileSize: 256 << 10, LevelBase: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 10_000
	bulkLoad(t, s, ycsb.GenRecords(n, 32))
	before := s.Stats().ECalls
	it := s.Iter(ycsb.Key(0), ycsb.Key(n))
	count := 0
	for it.Next() {
		count++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("streamed %d of %d", count, n)
	}
	chunkCalls := s.Stats().ECalls - before
	if chunkCalls < 10 {
		t.Fatalf("10k-record stream used only %d ECalls — looks materialized, not chunked", chunkCalls)
	}
}

// walFrames returns the byte offset of every frame boundary in a WAL file
// (including the final end offset), by walking the length-prefixed framing.
func walFrames(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	off := 0
	for off < len(data) {
		if off+8 > len(data) {
			t.Fatalf("truncated WAL header at %d", off)
		}
		n := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
		off += 8 + n
		offs = append(offs, int64(off))
	}
	return offs
}

// crashedBatchStore opens a dir-backed store, seals a base record, reopens
// it and commits a 10-record batch WITHOUT closing — simulating a crash
// with the batch present only in the untrusted WAL.
func crashedBatchStore(t *testing.T) (dir string, platform *sgx.Platform, counter *sgx.MonotonicCounter) {
	t.Helper()
	dir = t.TempDir()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	counter = sgx.NewMonotonicCounter()
	s1, err := Open(Options{Dir: dir, Platform: platform, ShardCounters: []*sgx.MonotonicCounter{counter}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Put([]byte("base"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil { // seals state: WAL digest covers "base"
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Platform: platform, ShardCounters: []*sgx.MonotonicCounter{counter}})
	if err != nil {
		t.Fatal(err)
	}
	b := s2.NewBatch()
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("batch%02d", i)), []byte("v"))
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: s2 is abandoned without Close — no sealed state covers the
	// batch; it exists only in the WAL.
	return dir, platform, counter
}

func TestBatchFullReplayAppliesWholeBatch(t *testing.T) {
	dir, platform, counter := crashedBatchStore(t)
	s, err := Open(Options{Dir: dir, Platform: platform, ShardCounters: []*sgx.MonotonicCounter{counter}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		res, err := s.Get([]byte(fmt.Sprintf("batch%02d", i)))
		if err != nil || !res.Found {
			t.Fatalf("batch record %d after recovery: %v found=%v", i, err, res.Found)
		}
	}
}

func TestBatchPartialReplayIsRecoveryError(t *testing.T) {
	// The host truncates the WAL inside the batch's commit group
	// (frame-aligned, so the log still parses). The torn group is dropped
	// whole, and clean recovery must refuse: a log that ends inside a
	// group is not a clean shutdown, whatever caused it.
	dir, platform, counter := crashedBatchStore(t)
	wal := filepath.Join(dir, "wal.log")
	offs := walFrames(t, wal)
	// Frames: base record, its COMMIT marker, 10 batch records, marker.
	if len(offs) != 14 {
		t.Fatalf("expected 13 WAL frames, got %d", len(offs)-1)
	}
	// Keep the base group and the first 6 batch records — no marker.
	if err := os.Truncate(wal, offs[8]); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Platform: platform, ShardCounters: []*sgx.MonotonicCounter{counter}, RequireCleanRecovery: true})
	if err == nil {
		t.Fatal("partially-replayed batch passed clean recovery")
	}
	if !IsAuthFailure(err) {
		t.Fatalf("partial batch error = %v, want auth failure", err)
	}
}

func TestBatchTornWALRecoversGroupPrefix(t *testing.T) {
	// A torn write (truncation mid-frame, as a crash during the group
	// append leaves it) rolls the whole group back: recovery succeeds and
	// the store holds exactly the committed groups before it — never a
	// partially-applied batch.
	dir, platform, counter := crashedBatchStore(t)
	wal := filepath.Join(dir, "wal.log")
	offs := walFrames(t, wal)
	if err := os.Truncate(wal, offs[len(offs)-1]-5); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Platform: platform, ShardCounters: []*sgx.MonotonicCounter{counter}})
	if err != nil {
		t.Fatalf("torn tail must recover to the last whole group: %v", err)
	}
	defer s.Close()
	if res, err := s.Get([]byte("base")); err != nil || !res.Found {
		t.Fatalf("committed group lost: %v found=%v", err, res.Found)
	}
	for i := 0; i < 10; i++ {
		res, err := s.Get([]byte(fmt.Sprintf("batch%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			t.Fatalf("batch record %d survived a torn group — atomicity broken", i)
		}
	}
}
