package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// smallOpts returns options tuned to force many flushes and compactions
// with little data.
func smallOpts(fs vfs.FS) Options {
	return Options{
		FS:              fs,
		MemtableSize:    4 << 10,
		BlockSize:       512,
		TableFileSize:   4 << 10,
		LevelBase:       16 << 10,
		LevelMultiplier: 4,
		MaxLevels:       5,
		KeepVersions:    1,
	}
}

// putKV and delKV are the tests' one-op Commits.
func putKV(s *Store, key, value []byte) (uint64, error) {
	return s.Commit(nil, []BatchOp{{Key: key, Value: value}})
}

func delKV(s *Store, key []byte) (uint64, error) {
	return s.Commit(nil, []BatchOp{{Key: key, Delete: true}})
}

// scanAll is the raw merged range read over a snapshot of s.
func scanAll(s *Store, start, end []byte) ([]record.Record, error) {
	snap := s.AcquireSnapshot()
	defer snap.Release()
	out, _, _, err := snap.ScanChunk(start, end, record.MaxTs, 0)
	return out, err
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetBasic(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	ts, err := putKV(s, []byte("hello"), []byte("world"))
	if err != nil || ts == 0 {
		t.Fatalf("put: ts=%d err=%v", ts, err)
	}
	rec, ok, err := s.Get([]byte("hello"), record.MaxTs)
	if err != nil || !ok || string(rec.Value) != "world" {
		t.Fatalf("get = %q %v %v", rec.Value, ok, err)
	}
	if _, ok, _ := s.Get([]byte("absent"), record.MaxTs); ok {
		t.Fatal("found absent key")
	}
}

func TestOverwriteAndTimestamps(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	ts1, _ := putKV(s, []byte("k"), []byte("v1"))
	ts2, _ := putKV(s, []byte("k"), []byte("v2"))
	if ts2 <= ts1 {
		t.Fatalf("timestamps not monotonic: %d then %d", ts1, ts2)
	}
	rec, _, _ := s.Get([]byte("k"), record.MaxTs)
	if string(rec.Value) != "v2" {
		t.Fatalf("latest = %q", rec.Value)
	}
	old, ok, _ := s.Get([]byte("k"), ts1)
	if !ok || string(old.Value) != "v1" {
		t.Fatalf("historical = %q %v", old.Value, ok)
	}
}

func TestDeleteTombstone(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	putKV(s, []byte("k"), []byte("v"))
	delKV(s, []byte("k"))
	rec, ok, _ := s.Get([]byte("k"), record.MaxTs)
	if !ok || rec.Kind != record.KindDelete {
		t.Fatalf("tombstone not surfaced: %v %v", rec.Kind, ok)
	}
}

func putMany(t *testing.T, s *Store, n int, valSize int) map[string]string {
	t.Helper()
	latest := make(map[string]string, n)
	val := bytes.Repeat([]byte("x"), valSize)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%06d", i%(n/2+1)) // ~2 versions per key
		v := fmt.Sprintf("v%d-%s", i, val)
		if _, err := putKV(s, []byte(key), []byte(v)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		latest[key] = v
	}
	return latest
}

func TestFlushAndCompactionPreserveData(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	latest := putMany(t, s, 3000, 64)
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("no flush happened despite tiny memtable")
	}
	if st.Compactions == 0 {
		t.Fatal("no compaction happened despite tiny levels")
	}
	for key, want := range latest {
		rec, ok, err := s.Get([]byte(key), record.MaxTs)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(rec.Value) != want {
			t.Fatalf("key %q: got %q ok=%v want %q", key, rec.Value, ok, want)
		}
	}
}

func TestLemma54LevelOrdering(t *testing.T) {
	// Lemma 5.4: for any key, versions at lower levels (and the memtable)
	// are strictly newer than versions at higher levels.
	s := mustOpen(t, func() Options {
		o := smallOpts(nil)
		o.KeepVersions = 0 // retain full history so multiple levels hold versions
		return o
	}())
	defer s.Close()
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key%03d", i%97)
		if _, err := putKV(s, []byte(key), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Walk runs newest-first; per key the maximum ts seen so far must
	// strictly decrease across runs.
	maxSeen := map[string]uint64{}
	snap := s.AcquireSnapshot()
	defer snap.Release()
	for i := range snap.Runs() {
		perRunMax := map[string]uint64{}
		if err := snap.RunRecords(i, func(rec record.Record) error {
			if rec.Ts > perRunMax[string(rec.Key)] {
				perRunMax[string(rec.Key)] = rec.Ts
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for k, ts := range perRunMax {
			if prev, ok := maxSeen[k]; ok && ts >= prev {
				t.Fatalf("Lemma 5.4 violated for %q: version %d at deeper run not older than %d", k, ts, prev)
			}
			if cur, ok := maxSeen[k]; !ok || ts < cur {
				maxSeen[k] = ts
			}
		}
	}
}

func TestTombstoneDroppedAtBottom(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	putKV(s, []byte("doomed"), []byte("v"))
	delKV(s, []byte("doomed"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The flush output is the bottom-most data: tombstone and shadowed
	// version must both be gone.
	if _, ok, _ := s.Get([]byte("doomed"), record.MaxTs); ok {
		t.Fatal("tombstone or shadowed version survived bottom-most flush")
	}
	if s.Stats().RecordsDropped < 2 {
		t.Fatalf("dropped = %d, want >= 2", s.Stats().RecordsDropped)
	}
}

func TestKeepVersionsPolicy(t *testing.T) {
	for _, keep := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("keep%d", keep), func(t *testing.T) {
			o := smallOpts(nil)
			o.KeepVersions = keep
			s := mustOpen(t, o)
			defer s.Close()
			var tss []uint64
			for i := 0; i < 5; i++ {
				ts, _ := putKV(s, []byte("k"), []byte(fmt.Sprintf("v%d", i)))
				tss = append(tss, ts)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// Count surviving versions via historical gets.
			surviving := 0
			for _, ts := range tss {
				if rec, ok, _ := s.Get([]byte("k"), ts); ok && rec.Ts == ts {
					surviving++
				}
			}
			want := len(tss)
			if keep > 0 && keep < want {
				want = keep
			}
			if surviving != want {
				t.Fatalf("keep=%d: %d versions survive, want %d", keep, surviving, want)
			}
		})
	}
}

func TestScanMerged(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	for i := 0; i < 500; i++ {
		putKV(s, []byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	delKV(s, []byte("key0150"))
	recs, err := scanAll(s, []byte("key0100"), []byte("key0199"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 99 { // 100 keys minus 1 deleted
		t.Fatalf("scan returned %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if bytes.Compare(recs[i-1].Key, recs[i].Key) >= 0 {
			t.Fatal("scan not sorted")
		}
	}
	for _, rec := range recs {
		if string(rec.Key) == "key0150" {
			t.Fatal("deleted key in scan")
		}
	}
}

func TestRecovery(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpen(t, smallOpts(fs))
	latest := putMany(t, s, 2000, 32)
	lastTs := s.LastTs()
	s.Close()

	s2 := mustOpen(t, smallOpts(fs))
	defer s2.Close()
	if s2.LastTs() < lastTs {
		t.Fatalf("timestamp went backwards: %d -> %d", lastTs, s2.LastTs())
	}
	for key, want := range latest {
		rec, ok, err := s2.Get([]byte(key), record.MaxTs)
		if err != nil || !ok || string(rec.Value) != want {
			t.Fatalf("after recovery, key %q: %q %v %v", key, rec.Value, ok, err)
		}
	}
	// Writes continue with fresh timestamps.
	ts, err := putKV(s2, []byte("post-recovery"), []byte("v"))
	if err != nil || ts <= lastTs {
		t.Fatalf("post-recovery put ts=%d err=%v", ts, err)
	}
}

func TestWALReplayPopulatesMemtable(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpen(t, smallOpts(fs))
	putKV(s, []byte("inmem"), []byte("v1")) // stays in memtable (small)
	s.Close()

	s2 := mustOpen(t, smallOpts(fs))
	defer s2.Close()
	snap := s2.AcquireSnapshot()
	defer snap.Release()
	if _, ok := snap.MemGet([]byte("inmem"), record.MaxTs); !ok {
		t.Fatal("memtable empty after WAL replay")
	}
	rec, ok, _ := s2.Get([]byte("inmem"), record.MaxTs)
	if !ok || string(rec.Value) != "v1" {
		t.Fatalf("replayed value = %q %v", rec.Value, ok)
	}
}

func TestVerifyWALPrefix(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpen(t, smallOpts(fs))
	defer s.Close()
	putKV(s, []byte("a"), []byte("1"))
	s.mu.Lock()
	mid := s.walW.Digest()
	s.mu.Unlock()
	putKV(s, []byte("b"), []byte("2"))
	putKV(s, []byte("c"), []byte("3"))

	extra, err := s.VerifyWALPrefix(mid)
	if err != nil || extra != 2 {
		t.Fatalf("extra=%d err=%v", extra, err)
	}
	full := func() [32]byte { s.mu.Lock(); defer s.mu.Unlock(); return s.walW.Digest() }()
	extra, err = s.VerifyWALPrefix(full)
	if err != nil || extra != 0 {
		t.Fatalf("full prefix: extra=%d err=%v", extra, err)
	}
	var bogus [32]byte
	bogus[0] = 0xee
	if _, err := s.VerifyWALPrefix(bogus); err == nil {
		t.Fatal("bogus digest accepted as prefix")
	}
}

func TestBulkLoad(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	var recs []record.Record
	for i := 0; i < 5000; i++ {
		recs = append(recs, record.Record{
			Key:   []byte(fmt.Sprintf("key%06d", i)),
			Ts:    uint64(i + 1),
			Kind:  record.KindSet,
			Value: []byte(fmt.Sprintf("val%d", i)),
		})
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2499, 4999} {
		rec, ok, err := s.Get(recs[i].Key, record.MaxTs)
		if err != nil || !ok || !bytes.Equal(rec.Value, recs[i].Value) {
			t.Fatalf("bulk-loaded key %d: %v %v", i, ok, err)
		}
	}
	// Bulk load on a non-empty store is rejected.
	if err := s.BulkLoad(recs); err == nil {
		t.Fatal("second bulk load accepted")
	}
	// Timestamps continue above the loaded ones.
	ts, _ := putKV(s, []byte("new"), []byte("v"))
	if ts <= 5000 {
		t.Fatalf("post-bulk-load ts = %d", ts)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	recs := []record.Record{
		{Key: []byte("b"), Ts: 1, Kind: record.KindSet},
		{Key: []byte("a"), Ts: 2, Kind: record.KindSet},
	}
	if err := s.BulkLoad(recs); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

func TestDisableCompactionAccumulatesRuns(t *testing.T) {
	o := smallOpts(nil)
	o.DisableCompaction = true
	s := mustOpen(t, o)
	defer s.Close()
	putMany(t, s, 2000, 64)
	runs := s.Runs()
	if len(runs) < 2 {
		t.Fatalf("expected multiple level-1 runs, got %d", len(runs))
	}
	for _, r := range runs {
		if r.Level != 1 {
			t.Fatalf("run at level %d with compaction disabled", r.Level)
		}
	}
	if s.Stats().Compactions != 0 {
		t.Fatal("compaction ran while disabled")
	}
	// Reads still resolve to the newest version across runs.
	rec, ok, _ := s.Get([]byte("key000001"), record.MaxTs)
	_ = rec
	_ = ok
}

func TestLookupRunMembershipAndBrackets(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	var recs []record.Record
	for i := 0; i < 1000; i++ {
		recs = append(recs, record.Record{
			Key:   []byte(fmt.Sprintf("key%04d", i*2)), // even keys only
			Ts:    uint64(i + 1),
			Kind:  record.KindSet,
			Value: []byte("v"),
		})
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	runs := s.Runs()
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	snap := s.AcquireSnapshot()
	defer snap.Release()

	// Present key.
	lk, err := snap.LookupRun(0, []byte("key0100"), record.MaxTs)
	if err != nil || !lk.Found || string(lk.Rec.Key) != "key0100" {
		t.Fatalf("membership lookup: %+v err=%v", lk, err)
	}
	// Absent key between two present ones.
	lk, err = snap.LookupRun(0, []byte("key0101"), record.MaxTs)
	if err != nil || lk.Found {
		t.Fatalf("non-membership lookup found something: %+v", lk)
	}
	if lk.Pred == nil || string(lk.Pred.Key) != "key0100" {
		t.Fatalf("pred = %v", lk.Pred)
	}
	if lk.Succ == nil || string(lk.Succ.Key) != "key0102" {
		t.Fatalf("succ = %v", lk.Succ)
	}
	// Before the first key.
	lk, _ = snap.LookupRun(0, []byte("a"), record.MaxTs)
	if lk.Found || lk.Pred != nil || lk.Succ == nil || string(lk.Succ.Key) != "key0000" {
		t.Fatalf("before-first lookup: %+v", lk)
	}
	// After the last key.
	lk, _ = snap.LookupRun(0, []byte("z"), record.MaxTs)
	if lk.Found || lk.Succ != nil || lk.Pred == nil || string(lk.Pred.Key) != "key1998" {
		t.Fatalf("after-last lookup: %+v", lk)
	}
}

func TestScanRunBrackets(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	var recs []record.Record
	for i := 0; i < 500; i++ {
		recs = append(recs, record.Record{
			Key:   []byte(fmt.Sprintf("key%04d", i)),
			Ts:    uint64(i + 1),
			Kind:  record.KindSet,
			Value: []byte("v"),
		})
	}
	if err := s.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	snap := s.AcquireSnapshot()
	defer snap.Release()
	rs, err := snap.ScanRunChunk(0, []byte("key0100"), []byte("key0110"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Records) != 11 {
		t.Fatalf("scan returned %d records", len(rs.Records))
	}
	if rs.Pred == nil || string(rs.Pred.Key) != "key0099" {
		t.Fatalf("pred = %v", rs.Pred)
	}
	if rs.Succ == nil || string(rs.Succ.Key) != "key0111" {
		t.Fatalf("succ = %v", rs.Succ)
	}
	// Range beyond the end: no records, pred = last.
	rs, err = snap.ScanRunChunk(0, []byte("z"), []byte("zz"), 0)
	if err != nil || len(rs.Records) != 0 || rs.Pred == nil {
		t.Fatalf("tail scan: %+v err=%v", rs, err)
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			putKV(s, []byte(fmt.Sprintf("key%04d", i%200)), []byte(fmt.Sprintf("v%d", i)))
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("key%04d", rnd.Intn(200)))
				if _, _, err := s.Get(key, record.MaxTs); err != nil {
					t.Errorf("concurrent get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMmapReadPath(t *testing.T) {
	o := smallOpts(nil)
	o.MmapReads = true
	s := mustOpen(t, o)
	defer s.Close()
	latest := putMany(t, s, 2000, 32)
	for key, want := range latest {
		rec, ok, err := s.Get([]byte(key), record.MaxTs)
		if err != nil || !ok || string(rec.Value) != want {
			t.Fatalf("mmap get %q: %q %v %v", key, rec.Value, ok, err)
		}
	}
}

func TestManualCompactRange(t *testing.T) {
	s := mustOpen(t, smallOpts(nil))
	defer s.Close()
	putMany(t, s, 1000, 32)
	if err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(0); err == nil {
		t.Fatal("compact(0) accepted")
	}
	if err := s.Compact(99); err == nil {
		t.Fatal("compact(99) accepted")
	}
}
