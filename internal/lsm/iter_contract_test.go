package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"elsm/internal/record"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
)

// scribbleListener overwrites the job's input files once the merge stream
// has ended and before any output is built — the latest moment a hostile
// host could still change bytes the engine has read.
type scribbleListener struct {
	NopListener
	scribble func()
	filtered atomic.Int64 // Filter runs on every part's goroutine
}

// scribbleJob is every job of a scribbleListener: the test runs them one at
// a time.
type scribbleJob struct {
	NopJob
	l *scribbleListener
}

func (l *scribbleListener) BeginJob(CompactionInfo) Job { return scribbleJob{l: l} }

func (j scribbleJob) Filter(_ int, _ uint64, rec record.Record, _ bool) {
	if len(rec.Proof) != 0 {
		panic("compaction passed a stale proof to Filter")
	}
	j.l.filtered.Add(1)
}

func (j scribbleJob) NewProofAppender() (sstable.ProofAppender, error) {
	if j.l.scribble != nil {
		j.l.scribble()
		j.l.scribble = nil
	}
	return nil, nil
}

// overwriteTables fills every table file of fs with 0xff through the live
// backing slice — the same memory a compaction's pinned view or an mmap
// read sees.
func overwriteTables(t *testing.T, fs *vfs.MemFS) {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data := f.Bytes()
		for i := range data {
			data[i] = 0xff
		}
		n++
	}
	if n == 0 {
		t.Fatal("no table files to overwrite")
	}
}

// TestCompactionKeepsItsOwnCopy checks the hash-what-you-write rule from the
// engine's side: the table iterators hand out views of the pinned input
// blocks, so everything a compaction keeps must be its own copy. The input
// files are overwritten as soon as the merge has consumed them; the output
// run must still hold every record intact.
func TestCompactionKeepsItsOwnCopy(t *testing.T) {
	fs := vfs.NewMem()
	l := &scribbleListener{}
	opts := smallOpts(fs)
	opts.Listener = l
	opts.MemtableSize = 1 << 20
	opts.LevelBase = 1 << 30 // nothing compacts on its own
	opts.KeepVersions = 0
	s := mustOpen(t, opts)
	defer s.Close()

	want := map[string]string{}
	put := func(lo, hi int, gen string) {
		for i := lo; i < hi; i++ {
			k, v := fmt.Sprintf("key%05d", i), fmt.Sprintf("value-%s-%05d", gen, i)
			if _, err := putKV(s, []byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 600, "a")
	if err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	put(300, 900, "b") // level 1 over level 2, half the keys in both

	l.scribble = func() { overwriteTables(t, fs) }
	before := l.filtered.Load()
	if err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	if l.scribble != nil {
		t.Fatal("the compaction never asked for a proof appender")
	}
	if got := l.filtered.Load() - before; got != 1200 {
		t.Fatalf("merge streamed %d records, want 1200", got)
	}
	if runs := s.Runs(); len(runs) != 1 {
		t.Fatalf("%d runs after the merge, want 1", len(runs))
	}
	for k, v := range want {
		rec, ok, err := s.Get([]byte(k), record.MaxTs)
		if err != nil || !ok || string(rec.Value) != v {
			t.Fatalf("Get(%s) = %q %v %v, want %q: the output kept bytes of an overwritten input", k, rec.Value, ok, err, v)
		}
	}
	out, err := scanAll(s, []byte("key"), []byte("kez"))
	if err != nil || len(out) != len(want) {
		t.Fatalf("scan after merge: %d records, err %v, want %d", len(out), err, len(want))
	}
}

// TestScanRunChunkKeepsItsOwnCopy is the same rule for the range read: with
// mmap reads the iterator's records are views of file memory, and what
// ScanRunChunk returns must not change when that memory does.
func TestScanRunChunkKeepsItsOwnCopy(t *testing.T) {
	fs := vfs.NewMem()
	opts := smallOpts(fs)
	opts.MmapReads = true
	opts.MemtableSize = 1 << 20
	s := mustOpen(t, opts)
	defer s.Close()
	for i := 0; i < 400; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("value%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := s.AcquireSnapshot()
	defer snap.Release()
	rs, err := snap.ScanRunChunk(0, []byte("key00100"), []byte("key00299"), 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 150 || !rs.Truncated || rs.Pred == nil || rs.Succ == nil {
		t.Fatalf("chunk: %d records, truncated %v, pred %v, succ %v", len(rs.Records), rs.Truncated, rs.Pred != nil, rs.Succ != nil)
	}
	overwriteTables(t, fs)
	check := func(rec record.Record, i int) {
		t.Helper()
		if k, v := fmt.Sprintf("key%05d", i), fmt.Sprintf("value%05d", i); string(rec.Key) != k || string(rec.Value) != v {
			t.Fatalf("record %d reads %q=%q after its file was overwritten", i, rec.Key, rec.Value)
		}
		if bytes.Contains(rec.Proof, []byte{0xff, 0xff, 0xff, 0xff}) {
			t.Fatalf("record %d's proof aliases file memory", i)
		}
	}
	check(*rs.Pred, 99)
	for i, rec := range rs.Records {
		check(rec, 100+i)
	}
	check(*rs.Succ, 250)
}

// bulkRun opens a store on fs holding one run of n single-version records
// split over several small tables, no block cache in front of the files, and
// returns it with a snapshot pinning the run.
func bulkRun(t *testing.T, fs vfs.FS, n int) (*Store, *Snapshot, []record.Record) {
	t.Helper()
	opts := smallOpts(fs)
	opts.DisableCompaction = true
	s := mustOpen(t, opts)
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: []byte(fmt.Sprintf("key%05d", i)), Ts: uint64(i + 1), Kind: record.KindSet, Value: []byte(fmt.Sprintf("value%05d", i))}
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	snap := s.AcquireSnapshot()
	if len(snap.v.runs) != 1 || len(snap.v.runs[0].tables) < 3 {
		t.Fatalf("set-up: %d runs, want 1 of several tables", len(snap.v.runs))
	}
	return s, snap, recs
}

// TestRunIterIsLazyAndReadsBlocksOnce: creating a run iterator reads nothing;
// a seek reads the one block that holds the position — not the run's first
// block, not the table's first block, and not the seek block a second time to
// start walking; the predecessor costs a read only when it lies in the block
// (or table) before; and a walk over the whole run reads every block exactly
// once. Block reads are counted as ReadAt calls on the table files.
func TestRunIterIsLazyAndReadsBlocksOnce(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	s, snap, recs := bulkRun(t, ffs, 600)
	defer s.Close()
	defer snap.Release()
	reads := func() uint64 {
		n := ffs.MatchingOps()
		ffs.ArmFilter(vfs.OpReadAt, "*.sst")
		return n
	}
	reads()
	tables := snap.v.runs[0].tables
	blocks := 0
	for _, th := range tables {
		blocks += th.table.NumBlocks()
	}

	it := newRunIter(snap.v.runs[0])
	if n := reads(); n != 0 {
		t.Fatalf("creating the iterator read %d blocks", n)
	}
	walked := 0
	for ; it.Valid(); it.Next() {
		if got := it.Record(); !bytes.Equal(got.Key, recs[walked].Key) || !bytes.Equal(got.Value, recs[walked].Value) {
			t.Fatalf("record %d = %q", walked, got.Key)
		}
		walked++
	}
	if n := reads(); walked != len(recs) || it.Close() != nil || int(n) != blocks {
		t.Fatalf("full walk: %d records, err %v, %d block reads for %d blocks", walked, it.Close(), n, blocks)
	}

	var cur RunIter
	for i, rec := range recs {
		if err := snap.SeekRun(0, &cur, rec.Key, nil); err != nil {
			t.Fatal(err)
		}
		if n := reads(); n != 1 || !cur.Valid() || !bytes.Equal(cur.Record().Key, rec.Key) {
			t.Fatalf("seek to record %d read %d blocks", i, n)
		}
		prev, _, ok, err := cur.SeekPrev()
		if n := reads(); err != nil || ok != (i > 0) || n > 1 || (ok && !bytes.Equal(prev.Key, recs[i-1].Key)) {
			t.Fatalf("SeekPrev at record %d = %q, %v, %v (%d block reads)", i, prev.Key, ok, err, n)
		}
	}
	// The record that opens each table, the one after the table before's
	// last, has its predecessor in the table before.
	edges := 0
	for ti := 1; ti < len(tables); ti++ {
		last := tables[ti-1].largest
		first := 1 + slices.IndexFunc(recs, func(r record.Record) bool { return bytes.Equal(r.Key, last) })
		if err := snap.SeekRun(0, &cur, recs[first].Key, nil); err != nil {
			t.Fatal(err)
		}
		prev, _, ok, err := cur.SeekPrev()
		if err != nil || !ok || !bytes.Equal(prev.Key, last) {
			t.Fatalf("SeekPrev at the head of table %d = %q, %v, %v", ti, prev.Key, ok, err)
		}
		edges++
	}
	// Past the end: nothing to stand on, the run's last record before it.
	if err := snap.SeekRun(0, &cur, []byte("zzz"), nil); err != nil {
		t.Fatal(err)
	}
	if prev, _, ok, err := cur.SeekPrev(); cur.Valid() || err != nil || !ok || !bytes.Equal(prev.Key, recs[len(recs)-1].Key) {
		t.Fatalf("SeekPrev past the end = %q, %v, %v", prev.Key, ok, err)
	}
	if edges == 0 {
		t.Fatal("no table edge exercised")
	}
}

// TestRunIterReadErrorIsSticky: a block read that fails mid-run must end the
// stream with that error — not move on to the next table as if the run were
// shorter — through the merge iterator a compaction reads its inputs with.
func TestRunIterReadErrorIsSticky(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	s, snap, recs := bulkRun(t, ffs, 600)
	defer s.Close()
	defer snap.Release()
	ffs.ArmFilter(vfs.OpReadAt, "*.sst")
	ffs.Arm(snap.v.runs[0].tables[0].table.NumBlocks() - 1) // the first table's last block fails
	m := newMergeIter([]mergeSource{{runID: snap.v.runs[0].id, iter: newRunIter(snap.v.runs[0])}})
	n := 0
	for ; m.Valid(); m.Next() {
		n++
	}
	if err := m.Close(); !errors.Is(err, vfs.ErrInjected) || n == 0 || n >= len(recs) {
		t.Fatalf("merge over a failing input: %d of %d records, Close = %v", n, len(recs), err)
	}
	ffs.Disarm()

	// The collected form reports it too, instead of a short result.
	ffs.Arm(0)
	if rs, err := snap.ScanRunChunk(0, recs[10].Key, recs[50].Key, 0); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("ScanRunChunk over a failing run = %d records, %v", len(rs.Records), err)
	}
	ffs.Disarm()
}

// TestTruncatedViewIsAnErrorNotAPanic: a compaction-pinned view (and an mmap
// view) is fetched from the host long after sstable.Open checked the index
// against the file, so the host may hand back fewer bytes than the index
// describes. A block that lies outside the view — partly or wholly — must
// read as a malformed table from the point read and from the iterator; the
// old slicing panicked on the one and returned a short block on the other.
func TestTruncatedViewIsAnErrorNotAPanic(t *testing.T) {
	s, snap, recs := bulkRun(t, vfs.NewMem(), 600)
	defer s.Close()
	defer snap.Release()
	th := snap.v.runs[0].tables[0]
	last := th.largest
	for _, path := range []string{"pinned", "mmap"} {
		s.fileMu.Lock()
		of := s.files[th.fileNum]
		of.pinned, of.view = nil, nil
		if short := make([]byte, 100); path == "pinned" {
			of.pinned = short
		} else {
			of.view = short
		}
		s.fileMu.Unlock()

		if _, _, err := s.Get(last, record.MaxTs); !errors.Is(err, sstable.ErrBadTable) {
			t.Errorf("%s view: Get of a key past the view = %v, want ErrBadTable", path, err)
		}
		it := newRunIter(snap.v.runs[0])
		n := 0
		for ; it.Valid(); it.Next() {
			n++
		}
		if err := it.Close(); !errors.Is(err, sstable.ErrBadTable) || n >= len(recs) {
			t.Errorf("%s view: iterator walked %d of %d records, Close = %v, want ErrBadTable", path, n, len(recs), err)
		}
	}
	s.fileMu.Lock()
	s.files[th.fileNum].pinned, s.files[th.fileNum].view = nil, nil
	s.fileMu.Unlock()
}
