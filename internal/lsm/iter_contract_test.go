package lsm

import (
	"bytes"
	"fmt"
	"strings"
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
	filtered int
}

// scribbleJob is every job of a scribbleListener: the test runs them one at
// a time.
type scribbleJob struct {
	NopJob
	l *scribbleListener
}

func (l *scribbleListener) BeginJob(CompactionInfo) Job { return scribbleJob{l: l} }

func (j scribbleJob) Filter(_ uint64, rec record.Record, _ bool) {
	if len(rec.Proof) != 0 {
		panic("compaction passed a stale proof to Filter")
	}
	j.l.filtered++
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
			if _, err := s.Put([]byte(k), []byte(v)); err != nil {
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
	before := l.filtered
	if err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	if l.scribble != nil {
		t.Fatal("the compaction never asked for a proof appender")
	}
	if got := l.filtered - before; got != 1200 {
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
	out, err := s.Scan([]byte("key"), []byte("kez"), record.MaxTs)
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
		if _, err := s.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("value%05d", i))); err != nil {
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
