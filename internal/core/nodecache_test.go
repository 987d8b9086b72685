package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// noCache is the cacheless verifier: every path is walked to the root.
var noCache = &verifier{}

// cacheImage copies the raw bytes of a node cache's table, so a test can
// assert that something left the cache byte-identical.
func cacheImage(c *merkle.NodeCache) []byte {
	slots := reflect.ValueOf(c).Elem().FieldByName("slots")
	n := slots.Len() * int(slots.Type().Elem().Size())
	return bytes.Clone(unsafe.Slice((*byte)(slots.UnsafePointer()), n))
}

// twoRunValues is twoRunStore with a distinct value per key: odd keys in the
// upper run, even keys in the lower, no block cache in front of the files.
func twoRunValues(t *testing.T, fs vfs.FS, n int) *Store {
	return twoRunStoreOn(t, Config{FS: fs}, n, twoRunValue)
}

func twoRunValue(i int) []byte { return []byte(fmt.Sprintf("value-of-%012d", i)) }

// readAll verifies every key of a twoRunValues store (and so warms the node
// cache down to every leaf of both runs).
func readAll(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < 2*n; i++ {
		res, err := Get(s, twoRunKey(i))
		if err != nil || !res.Found || !bytes.Equal(res.Value, twoRunValue(i)) {
			t.Fatalf("Get(%d) = %+v, %v", i, res, err)
		}
	}
}

// TestNodeCachePoisoning plays the host against the verified-node cache: a
// forged record, forged proofs, a wrong leaf index, truncated and over-long
// paths, and a witness from another run. Cold or fully warm, every attempt
// must fail with the error class it fails with today, must leave the cache
// byte-identical (a failed verification inserts nothing, so nothing false
// can ever be planted), and the honest read that follows must be accepted.
func TestNodeCachePoisoning(t *testing.T) {
	const n = 300
	s := twoRunValues(t, vfs.NewMem(), n)
	defer s.Close()
	runs := s.Engine().Runs() // newest first: upper (odd keys), then lower (even keys)
	digs := s.snapshotDigests()
	const target = 100 // even: lives in the lower run
	key := twoRunKey(target)
	lk, err := lookupRun(s, runs[1].ID, key, record.MaxTs)
	if err != nil || !lk.Found {
		t.Fatalf("honest lookup: %+v, %v", lk, err)
	}
	// A witness of the other run, at another leaf index: under a warm cache
	// only the bytes a walk consumes can matter, and with the same index,
	// chain and leaf the other run's sibling hashes would never be read.
	other, err := lookupRun(s, runs[0].ID, twoRunKey(target+3), record.MaxTs)
	if err != nil || !other.Found {
		t.Fatalf("honest lookup in the other run: %+v, %v", other, err)
	}
	d := digs[runs[1].ID]
	honest := lk.Rec
	pathLen := merkle.PathLen(target/2, d.NumLeaves) // no newer versions: the path count sits 2 bytes before the path
	countOff := len(honest.Proof) - pathLen*merkle.PathNodeSize - 2
	if int(binary.BigEndian.Uint16(honest.Proof[countOff:])) != pathLen {
		t.Fatalf("proof layout: count at %d is not %d", countOff, pathLen)
	}
	withProof := func(edit func(p []byte) []byte) record.Record {
		r := honest
		r.Proof = edit(bytes.Clone(honest.Proof))
		return r
	}
	attacks := []struct {
		name string
		rec  record.Record
		dig  runDigest
	}{
		{"forged value", func() record.Record { r := honest; r.Value = []byte("forged"); return r }(), d},
		{"forged timestamp", func() record.Record { r := honest; r.Ts--; return r }(), d},
		{"forged chain value", withProof(func(p []byte) []byte { p[6] ^= 1; return p }), d}, // first byte of Inner
		{"flipped side bit", withProof(func(p []byte) []byte { p[countOff+2] ^= 1; return p }), d},
		{"wrong leaf index", withProof(func(p []byte) []byte {
			binary.BigEndian.PutUint32(p, binary.BigEndian.Uint32(p)+1)
			return p
		}), d},
		{"truncated proof", withProof(func(p []byte) []byte { return p[:len(p)-merkle.PathNodeSize] }), d},
		{"truncated path", withProof(func(p []byte) []byte {
			binary.BigEndian.PutUint16(p[countOff:], uint16(pathLen-1))
			return p[:len(p)-merkle.PathNodeSize]
		}), d},
		{"over-long path", withProof(func(p []byte) []byte {
			binary.BigEndian.PutUint16(p[countOff:], uint16(pathLen+1))
			return append(p, p[len(p)-merkle.PathNodeSize:]...)
		}), d},
		{"witness of another run", honest, digs[runs[0].ID]},
		{"proof of another run", func() record.Record { r := honest; r.Proof = other.Rec.Proof; return r }(), d},
	}
	for _, state := range []string{"cold", "warm"} {
		s.verify.nodes = merkle.NewNodeCache()
		if state == "warm" {
			readAll(t, s, n)
		}
		for _, a := range attacks {
			before := cacheImage(s.verify.nodes)
			if err := s.verify.verifyMembership(key, record.MaxTs, a.rec, a.dig); !errors.Is(err, ErrForged) {
				t.Fatalf("%s cache, %s: %v, want ErrForged", state, a.name, err)
			}
			if !bytes.Equal(before, cacheImage(s.verify.nodes)) {
				t.Fatalf("%s cache, %s: the failed verification changed the cache", state, a.name)
			}
			if err := s.verify.verifyMembership(key, record.MaxTs, honest, d); err != nil {
				t.Fatalf("%s cache, after %s: honest witness rejected: %v", state, a.name, err)
			}
			if res, err := Get(s, key); err != nil || !bytes.Equal(res.Value, twoRunValue(target)) {
				t.Fatalf("%s cache, after %s: honest Get = %+v, %v", state, a.name, res, err)
			}
			if state == "cold" {
				s.verify.nodes = merkle.NewNodeCache() // the honest reads warmed it: start over
			}
		}
	}
}

// TestNodeCacheRunsDoNotMix: two runs hold the same key at the same leaf
// index; each run's entries are keyed by its own trusted root, so a fully
// warm cache of one run neither accepts its witness for the other nor
// spares the other a single hash.
func TestNodeCacheRunsDoNotMix(t *testing.T) {
	s := mustOpenP2(t, Config{FS: vfs.NewMem(), Geometry: lsm.Geometry{MemtableSize: 64 << 20, LevelBase: 1 << 30}, KeepVersions: 1, DisableCompaction: true})
	defer s.Close()
	const n = 200
	for gen := 0; gen < 2; gen++ { // the same keys twice: one run per generation
		for i := 0; i < n; i++ {
			if _, err := Put(s, twoRunKey(i), []byte(fmt.Sprintf("gen%d-%d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Engine().Runs()
	if len(runs) != 2 {
		t.Fatalf("%d runs, want 2", len(runs))
	}
	digs := s.snapshotDigests()
	newer, older := runs[0].ID, runs[1].ID
	key := twoRunKey(77)
	lkNew, err := lookupRun(s, newer, key, record.MaxTs)
	if err != nil || !lkNew.Found {
		t.Fatal(lkNew, err)
	}
	lkOld, err := lookupRun(s, older, key, record.MaxTs)
	if err != nil || !lkOld.Found {
		t.Fatal(lkOld, err)
	}
	// Warm the cache with the newer run only (early stop never reaches the older).
	for i := 0; i < n; i++ {
		if _, err := Get(s, twoRunKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.verify.verifyMembership(key, record.MaxTs, lkNew.Rec, digs[older]); !errors.Is(err, ErrForged) {
		t.Fatalf("the newer run's witness verified under the older run's root: %v", err)
	}
	before := s.VerifyStatsSnapshot()
	if err := s.verify.verifyMembership(key, record.MaxTs, lkOld.Rec, digs[older]); err != nil {
		t.Fatal(err)
	}
	after := s.VerifyStatsSnapshot()
	if want := uint64(merkle.PathLen(77, n)); after.VerifyNodeHashes-before.VerifyNodeHashes != want || after.VerifyNodeCacheMisses != before.VerifyNodeCacheMisses+1 {
		t.Fatalf("the older run's first witness cost %d hashes (want the full %d) and %d root walks (want 1)",
			after.VerifyNodeHashes-before.VerifyNodeHashes, want, after.VerifyNodeCacheMisses-before.VerifyNodeCacheMisses)
	}
}

// TestTamperedTableUnderWarmCache: with every leaf of every run already in
// the verified-node cache, flipping one byte of a record's value in its
// SSTable must still fail that key's Get — the leaf is recomputed from the
// bytes that crossed, and it no longer matches the cached one — while its
// untouched neighbours keep reading.
func TestTamperedTableUnderWarmCache(t *testing.T) {
	const n = 300
	fs := vfs.NewMem()
	s := twoRunValues(t, fs, n)
	defer s.Close()
	readAll(t, s, n)
	readAll(t, s, n)
	if vs := s.VerifyStatsSnapshot(); vs.VerifyNodeCacheHits == 0 {
		t.Fatalf("cache never hit: %+v", vs)
	}
	const target = 100
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		off := bytes.Index(f.Bytes(), twoRunValue(target))
		f.Close()
		if off >= 0 {
			if err := fs.Corrupt(name, int64(off)); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("value not found in any table")
	}
	s.emptyRecordCache() // the reads below are the proof path's
	if res, err := Get(s, twoRunKey(target)); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Get of the tampered record = %+v, %v; want ErrAuthFailed", res, err)
	}
	for _, i := range []int{target - 2, target - 1, target + 1, target + 2} {
		if res, err := Get(s, twoRunKey(i)); err != nil || !bytes.Equal(res.Value, twoRunValue(i)) {
			t.Fatalf("Get(%d) beside the tampered record = %+v, %v", i, res, err)
		}
	}
}

// TestConcurrentGetsWhileRunsRetire runs verified Gets — present keys and
// absent ones — from several goroutines against one shared node cache and
// record cache while a writer keeps flushing and compacting, so runs whose
// nodes and records are cached are retired under the readers and new roots
// appear. Run under -race.
func TestConcurrentGetsWhileRunsRetire(t *testing.T) {
	cfg := smallCfg(nil)
	cfg.KeepVersions = 1
	s := mustOpenP2(t, cfg)
	defer s.Close()
	const keys = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	for i := 0; i < keys; i++ {
		if _, err := Put(s, key(i), []byte("gen0")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				res, err := Get(s, key(i%keys))
				if err != nil || !res.Found || !bytes.HasPrefix(res.Value, []byte("gen")) {
					t.Errorf("Get(%d) = %+v, %v", i%keys, res, err)
					return
				}
				if res, err := Get(s, append(key(i%keys), '~')); err != nil || res.Found {
					t.Errorf("Get of an absent key = %+v, %v", res, err)
					return
				}
			}
		}(g)
	}
	for gen := 1; gen <= 4; gen++ {
		for i := 0; i < keys; i++ {
			if _, err := Put(s, key(i), []byte(fmt.Sprintf("gen%d", gen))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if st := s.Engine().Stats(); st.Compactions == 0 {
		t.Fatalf("no run was retired: %+v", st)
	}
	if vs := s.VerifyStatsSnapshot(); vs.VerifyNodeCacheHits == 0 || vs.VerifyNodeCacheMisses == 0 || vs.RunsCached == 0 {
		t.Fatalf("expected cached and root walks, and runs answered from the record cache: %+v", vs)
	}
}
