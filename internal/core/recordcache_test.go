package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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

// TestOversizedRecordIsNotCached: a record whose entry fills a set exactly —
// the 44-byte header and 2 004 bytes of key and value — is cached; one byte
// more, or a key over 255 bytes, and it is proved on every Get, and still
// verifies.
func TestOversizedRecordIsNotCached(t *testing.T) {
	if recordEntryHead+recordMaxKV != recordSetData || recordMaxKV != 2004 || recordMaxKey != 255 {
		t.Fatalf("an entry holds %d bytes of key and value beside a %d-byte header in a %d-byte set, keys to %d bytes; want 2004, 44, 2048 and 255",
			recordMaxKV, recordEntryHead, recordSetData, recordMaxKey)
	}
	s := mustOpenP2(t, earlyStopCfg(nil))
	defer s.Close()
	fits, over, long := []byte("fits"), []byte("over"), bytes.Repeat([]byte("l"), recordMaxKey+1)
	fitsVal := bytes.Repeat([]byte("f"), recordMaxKV-len(fits))
	overVal := bytes.Repeat([]byte("o"), recordMaxKV-len(over)+1)
	longVal := []byte("v")
	for k, v := range map[string][]byte{string(fits): fitsVal, string(over): overVal, string(long): longVal} {
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
		{long, longVal, 1, 0}, {long, longVal, 1, 0},
	} {
		res, probed, cached, err := cacheCounts(t, s, tc.key, record.MaxTs)
		if err != nil || !bytes.Equal(res.Value, tc.value) {
			t.Fatalf("Get(%.8s…) = %d value bytes, %v", tc.key, len(res.Value), err)
		}
		if probed != tc.probed || cached != tc.cached {
			t.Errorf("Get(%.8s…) proved %d runs and answered %d from the cache, want %d and %d", tc.key, probed, cached, tc.probed, tc.cached)
		}
	}
}

// locateKey returns key's set in rc and the tag of its entry for root.
func locateKey(rc *recordCache, root *hashutil.Hash, key []byte) (*recordSet, uint16) {
	return rc.locate(root, spread(keyHash(key)))
}

// TestRecordCacheKeysByWholeRoot: the set index reads only the key and the
// tag only the root's second word, so two runs whose roots share that word
// share the key's set and tag; an entry still answers for its own run
// alone, and only at or after its timestamp.
func TestRecordCacheKeysByWholeRoot(t *testing.T) {
	rc := newRecordCache()
	var own, other hashutil.Hash
	own[0], other[0], other[31] = 1, 1, 1
	rec := record.Record{Key: []byte("k"), Ts: 5, Kind: record.KindSet, Value: []byte("v")}
	rc.put(&own, &rec)
	s1, tag1 := locateKey(rc, &own, rec.Key)
	s2, tag2 := locateKey(rc, &other, rec.Key)
	if s1 != s2 || tag1 != tag2 {
		t.Fatal("the two roots do not share the key's set and tag")
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

// TestRecordCacheTagCollision: two keys whose entries share a set and a tag
// (found by a birthday search over the key hash) never answer for each
// other, in the same run or across runs whose roots share the tag's word.
func TestRecordCacheTagCollision(t *testing.T) {
	rc := newRecordCache()
	var root, other hashutil.Hash
	root[0], other[0], other[31] = 1, 1, 1
	type slot struct {
		set *recordSet
		tag uint16
	}
	seen := make(map[slot][]byte)
	var k1, k2 []byte
	for i := 0; k2 == nil; i++ {
		k := []byte(fmt.Sprintf("key-%012d", i))
		s, tag := locateKey(rc, &root, k)
		if prev, ok := seen[slot{s, tag}]; ok {
			k1, k2 = prev, k
		}
		seen[slot{s, tag}] = k
	}
	rec := func(k []byte) *record.Record {
		return &record.Record{Key: k, Ts: 1, Kind: record.KindSet, Value: append([]byte("v-"), k...)}
	}
	rc.put(&root, rec(k1))
	if res, ok := rc.get(&root, k2, record.MaxTs); ok {
		t.Fatalf("Get(%s) answered from %s's entry: %+v", k2, k1, res)
	}
	if res, ok := rc.get(&other, k1, record.MaxTs); ok {
		t.Fatalf("Get(%s) in another run answered: %+v", k1, res)
	}
	rc.put(&root, rec(k2))
	for _, k := range [][]byte{k1, k2} {
		if res, ok := rc.get(&root, k, record.MaxTs); !ok || !bytes.Equal(res.Key, k) || !bytes.Equal(res.Value, rec(k).Value) {
			t.Fatalf("Get(%s) = %+v, %v; want its own entry", k, res, ok)
		}
	}
}

// zipfHitShare drives rc directly with draws of a zipf(1.1) mix over 50 000
// keys of 16 bytes, each with a 100-byte value in one run, putting the record
// after every miss as a verified Get would, and returns the share of draws
// that hit.
func zipfHitShare(rc *recordCache, draws int) float64 {
	var root hashutil.Hash
	root[0] = 1
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 49999)
	rec := record.Record{Key: make([]byte, 16), Ts: 1, Kind: record.KindSet, Value: bytes.Repeat([]byte("v"), 100)}
	hits := 0
	for range draws {
		binary.BigEndian.PutUint64(rec.Key[8:], zipf.Uint64())
		if _, ok := rc.get(&root, rec.Key, record.MaxTs); ok {
			hits++
		} else {
			rc.put(&root, &rec)
		}
	}
	return float64(hits) / float64(draws)
}

// TestRecordCacheKeepsTheHotSet: on a zipf(1.1) mix over 50 000 records of
// 116 bytes, the cache answers at least 80 % of 200 000 lookups. A
// direct-mapped table of 4 096 slots in the same megabyte answers about 75 %.
func TestRecordCacheKeepsTheHotSet(t *testing.T) {
	if share := zipfHitShare(newRecordCache(), 200000); share < 0.80 {
		t.Errorf("hit share %.3f, want at least 0.80", share)
	} else {
		t.Logf("hit share %.3f", share)
	}
}

// TestRecordCacheSurvivesAColdBurst: once 1 000 hot keys have each been
// looked up four times, a stream of 20 000 one-time keys, each looked up
// and offered once, leaves at least 90 % of the hot keys cached: a one-time
// key's count never beats a hot victim's.
func TestRecordCacheSurvivesAColdBurst(t *testing.T) {
	rc := newRecordCache()
	var root hashutil.Hash
	root[0] = 1
	rec := record.Record{Key: make([]byte, 16), Ts: 1, Kind: record.KindSet, Value: bytes.Repeat([]byte("v"), 100)}
	lookup := func(i uint64) bool {
		binary.BigEndian.PutUint64(rec.Key[8:], i)
		if _, ok := rc.get(&root, rec.Key, record.MaxTs); ok {
			return true
		}
		rc.put(&root, &rec)
		return false
	}
	const hot, cold = 1000, 20000
	for range 4 {
		for i := range uint64(hot) {
			lookup(i)
		}
	}
	for i := range uint64(cold) {
		lookup(hot + i)
	}
	kept := 0
	for i := range uint64(hot) {
		binary.BigEndian.PutUint64(rec.Key[8:], i)
		if _, ok := rc.get(&root, rec.Key, record.MaxTs); ok {
			kept++
		}
	}
	if kept < hot*9/10 {
		t.Errorf("%d of %d hot keys still cached after %d one-time keys, want at least %d", kept, hot, cold, hot*9/10)
	} else {
		t.Logf("%d of %d hot keys still cached", kept, hot)
	}
}

// TestRecordCacheFollowsAKeyToItsNewRoot: a hot key's entry for a retired
// run yields to the key's entry for the run that replaced it, though the
// sketch counts the two alike (it counts keys, not runs), while the set's
// other entries stay.
func TestRecordCacheFollowsAKeyToItsNewRoot(t *testing.T) {
	rc := newRecordCache()
	var oldRoot, newRoot hashutil.Hash
	oldRoot[0], newRoot[0] = 1, 2
	rec := func(k []byte) *record.Record {
		return &record.Record{Key: k, Ts: 1, Kind: record.KindSet, Value: bytes.Repeat([]byte("v"), 100)}
	}
	hot := []byte("hot-key-00000000")
	set, _ := locateKey(rc, &oldRoot, hot)
	rc.put(&oldRoot, rec(hot))
	for range 10 {
		if _, ok := rc.get(&oldRoot, hot, record.MaxTs); !ok {
			t.Fatal("the hot key's entry is missing")
		}
	}
	var others [][]byte // fill the set behind the hot entry, each seen once
	for i := 0; int(set.used)+recordEntryHead+len(hot)+100 <= recordSetData; i++ {
		k := []byte(fmt.Sprintf("key-%012d", i))
		if s, _ := locateKey(rc, &oldRoot, k); s == set {
			rc.get(&oldRoot, k, record.MaxTs)
			rc.put(&oldRoot, rec(k))
			others = append(others, k)
		}
	}
	if _, ok := rc.get(&newRoot, hot, record.MaxTs); ok {
		t.Fatal("the new run's entry answered before it was put")
	}
	rc.put(&newRoot, rec(hot))
	if _, ok := rc.get(&newRoot, hot, record.MaxTs); !ok {
		t.Error("the hot key's entry for its new run was not admitted")
	}
	if _, ok := rc.get(&oldRoot, hot, record.MaxTs); ok {
		t.Error("the retired run's entry is still cached")
	}
	for _, k := range others {
		if _, ok := rc.get(&oldRoot, k, record.MaxTs); !ok {
			t.Errorf("%s was evicted too", k)
		}
	}
}

// TestRecordCacheFitsItsBudget: the sets, their directories, sketches and
// locks included, fit the megabyte NewVerifiedCaches charges, and fill it
// to within one set.
func TestRecordCacheFitsItsBudget(t *testing.T) {
	rc := newRecordCache()
	size := int(unsafe.Sizeof(recordSet{}))
	if total := len(rc.sets) * size; total > recordCacheBytes || total+size <= recordCacheBytes {
		t.Errorf("%d sets of %d bytes = %d bytes, want at most %d and within one set of it", len(rc.sets), size, total, recordCacheBytes)
	}
	t.Logf("%d sets of %d bytes", len(rc.sets), size)
}
