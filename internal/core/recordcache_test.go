package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unsafe"

	"elsm/internal/hashutil"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// cacheCounts runs one GetAt and reports it with the runs it proved and the
// runs it answered from the verified-record cache.
func cacheCounts(t *testing.T, s *Store, key []byte, tsq uint64) (res Result, probed, cached uint64, err error) {
	t.Helper()
	before := s.VerifyStatsSnapshot()
	res, err = s.GetAt(nil, key, tsq)
	after := s.VerifyStatsSnapshot()
	return res, after.RunsProbed - before.RunsProbed, after.RunsCached - before.RunsCached, err
}

// flipAll flips, in every table of fs, each byte of every occurrence of b,
// and returns the host's undo: flipping the same bytes again.
func flipAll(t *testing.T, fs *vfs.MemFS, b []byte) (restore func()) {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	type at struct {
		name string
		off  int
	}
	var found []at
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data := f.Bytes()
		for off := 0; ; {
			i := bytes.Index(data[off:], b)
			if i < 0 {
				break
			}
			found = append(found, at{name, off + i})
			off += i + len(b)
		}
		f.Close()
	}
	if len(found) == 0 {
		t.Fatalf("%q not found in any table", b)
	}
	flip := func() {
		for _, a := range found {
			for j := range b {
				if err := fs.Corrupt(a.name, int64(a.off+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	flip()
	return flip
}

// TestCachedGetReadsNoBlock: on TestGetEarlyStopCounts' tree a key only in
// the deepest run is proved there once; a repeat Get is answered from the
// verified-record cache, counts that run as cached, and asks the host for no
// block at all.
func TestCachedGetReadsNoBlock(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	s := mustOpenP2(t, earlyStopCfg(ffs))
	defer s.Close()
	earlyStopTree(t, s)
	if res, probed, cached, err := cacheCounts(t, s, []byte("deep"), record.MaxTs); err != nil || !res.Found || probed != 1 || cached != 0 {
		t.Fatalf("first Get(deep) = %+v, %v: proved %d runs, cached %d; want 1 and 0", res, err, probed, cached)
	}
	ffs.ArmFilter(vfs.OpReadAt, "*.sst")
	res, probed, cached, err := cacheCounts(t, s, []byte("deep"), record.MaxTs)
	if err != nil || !res.Found || string(res.Value) != "v-deep" {
		t.Fatalf("repeat Get(deep) = %+v, %v", res, err)
	}
	if probed != 0 || cached != 1 {
		t.Errorf("repeat Get(deep) proved %d runs and answered %d from the cache, want 0 and 1", probed, cached)
	}
	if reads := ffs.MatchingOps(); reads != 0 {
		t.Errorf("repeat Get(deep) read %d blocks, want none", reads)
	}
}

// TestCachedRecordIgnoresTamperedBlock is "detect or be harmless" for the
// record cache: once a key is proved, the host flips every byte of its value
// in the table, and the next Get returns exactly the genuine value — the
// flipped bytes are never read. The flip is real: with the cache emptied, the
// Get proves the run again and fails.
func TestCachedRecordIgnoresTamperedBlock(t *testing.T) {
	const n, target = 300, 100 // even: lives in the lower run
	fs := vfs.NewMem()
	s := twoRunValues(t, fs, n)
	defer s.Close()
	key := twoRunKey(target)
	if res, err := Get(s, key); err != nil || !bytes.Equal(res.Value, twoRunValue(target)) {
		t.Fatalf("Get = %+v, %v", res, err)
	}
	flipAll(t, fs, twoRunValue(target))
	res, probed, cached, err := cacheCounts(t, s, key, record.MaxTs)
	if err != nil || !res.Found || !bytes.Equal(res.Value, twoRunValue(target)) {
		t.Fatalf("Get after the flip = %+v, %v; want the genuine value", res, err)
	}
	if probed != 0 || cached != 1 {
		t.Errorf("Get after the flip proved %d runs and answered %d from the cache, want 0 and 1", probed, cached)
	}
	s.emptyRecordCache()
	if res, err := Get(s, key); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("proved again, the flipped record = %+v, %v; want ErrAuthFailed", res, err)
	}
}

// TestRecordCacheRespectsTs: an entry is a run's newest version of its key,
// so a historical read never inserts one and never takes one newer than its
// query time. One run holds two versions of k (history kept), a newer run
// its tombstone.
func TestRecordCacheRespectsTs(t *testing.T) {
	cfg := earlyStopCfg(nil)
	cfg.KeepVersions = 0 // every version stays in its run
	s := mustOpenP2(t, cfg)
	defer s.Close()
	key := []byte("k")
	oldTs, err := Put(s, key, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	newTs, err := Put(s, key, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(step string, tsq uint64, wantVal string, wantProbed, wantCached uint64) {
		t.Helper()
		res, probed, cached, err := cacheCounts(t, s, key, tsq)
		if err != nil || res.Found != (wantVal != "") || string(res.Value) != wantVal {
			t.Fatalf("%s: GetAt(%d) = %+v, %v; want %q", step, tsq, res, err, wantVal)
		}
		if probed != wantProbed || cached != wantCached {
			t.Errorf("%s: proved %d runs and answered %d from the cache, want %d and %d", step, probed, cached, wantProbed, wantCached)
		}
	}
	check("historical read", oldTs, "old", 1, 0)
	check("historical read again: nothing was inserted", oldTs, "old", 1, 0)
	check("latest read", record.MaxTs, "new", 1, 0)
	check("latest read again", record.MaxTs, "new", 0, 1)
	check("at the newest version's own time", newTs, "new", 0, 1)
	check("historical read after the newest is cached", oldTs, "old", 1, 0)

	delTs, err := Delete(s, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	check("deleted", record.MaxTs, "", 1, 0)
	check("deleted, the tombstone cached", record.MaxTs, "", 0, 1)
	check("before the delete: the tombstone refuted, the older run cached", delTs-1, "new", 1, 1)
}

// TestForgedWitnessCachesNothing: the host corrupts a record before its first
// read, so the Get fails; once the host restores the block, the next Get
// proves the run again — the failed verification cached nothing — and only
// the Get after that is answered from the cache.
func TestForgedWitnessCachesNothing(t *testing.T) {
	const n, target = 300, 100
	fs := vfs.NewMem()
	s := twoRunValues(t, fs, n)
	defer s.Close()
	key := twoRunKey(target)
	restore := flipAll(t, fs, twoRunValue(target))
	if res, err := Get(s, key); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Get of the forged record = %+v, %v; want ErrAuthFailed", res, err)
	}
	restore()
	for _, want := range []struct{ probed, cached uint64 }{{1, 0}, {0, 1}} {
		res, probed, cached, err := cacheCounts(t, s, key, record.MaxTs)
		if err != nil || !bytes.Equal(res.Value, twoRunValue(target)) {
			t.Fatalf("Get after the restore = %+v, %v", res, err)
		}
		if probed != want.probed || cached != want.cached {
			t.Errorf("Get after the restore proved %d runs and answered %d from the cache, want %d and %d", probed, cached, want.probed, want.cached)
		}
	}
}

// TestOversizedRecordIsNotCached: a record whose key and value fill a slot
// exactly is cached; one byte more and it is proved on every Get, and still
// verifies.
func TestOversizedRecordIsNotCached(t *testing.T) {
	if size := unsafe.Sizeof(recordSlot{}); size != recordSlotSize {
		t.Fatalf("a slot is %d bytes, want %d", size, recordSlotSize)
	}
	s := mustOpenP2(t, earlyStopCfg(nil))
	defer s.Close()
	fits, over := []byte("fits"), []byte("over")
	fitsVal := bytes.Repeat([]byte("f"), recordSlotKV-len(fits))
	overVal := bytes.Repeat([]byte("o"), recordSlotKV-len(over)+1)
	for k, v := range map[string][]byte{string(fits): fitsVal, string(over): overVal} {
		if _, err := Put(s, []byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key, value     []byte
		probed, cached uint64
	}{
		{fits, fitsVal, 1, 0}, {fits, fitsVal, 0, 1},
		{over, overVal, 1, 0}, {over, overVal, 1, 0},
	} {
		res, probed, cached, err := cacheCounts(t, s, tc.key, record.MaxTs)
		if err != nil || !bytes.Equal(res.Value, tc.value) {
			t.Fatalf("Get(%s) = %d value bytes, %v", tc.key, len(res.Value), err)
		}
		if probed != tc.probed || cached != tc.cached {
			t.Errorf("Get(%s) proved %d runs and answered %d from the cache, want %d and %d", tc.key, probed, cached, tc.probed, tc.cached)
		}
	}
}

// TestRecordCacheKeysByWholeRoot: the slot index reads only the root's first
// word, so two runs whose roots share it share the key's slot; an entry
// still answers for its own run alone, and only at or after its timestamp.
func TestRecordCacheKeysByWholeRoot(t *testing.T) {
	rc := newRecordCache()
	var own, other hashutil.Hash
	own[0], other[0], other[31] = 1, 1, 1
	rec := record.Record{Key: []byte("k"), Ts: 5, Kind: record.KindSet, Value: []byte("v")}
	rc.put(&own, &rec)
	s1, _ := rc.slot(&own, rec.Key)
	s2, _ := rc.slot(&other, rec.Key)
	if s1 != s2 {
		t.Fatal("the two roots do not share the key's slot")
	}
	if res, ok := rc.get(&other, rec.Key, record.MaxTs); ok {
		t.Fatalf("another run's entry answered: %+v", res)
	}
	if res, ok := rc.get(&own, rec.Key, rec.Ts-1); ok {
		t.Fatalf("an entry newer than the query time answered: %+v", res)
	}
	if res, ok := rc.get(&own, rec.Key, rec.Ts); !ok || string(res.Key) != "k" || string(res.Value) != "v" || res.Ts != rec.Ts || !res.Found {
		t.Fatalf("own run's entry = %+v, %v", res, ok)
	}
}
