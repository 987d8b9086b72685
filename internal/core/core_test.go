package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// smallCfg forces frequent flushes/compactions with little data.
func smallCfg(fs vfs.FS) Config {
	return Config{
		FS: fs,
		Geometry: lsm.Geometry{
			MemtableSize:  4 << 10,
			BlockSize:     512,
			TableFileSize: 4 << 10,
			LevelBase:     16 << 10,
			MaxLevels:     5,
		},
		KeepVersions: 0, // retain history: exercises version chains
	}
}

func mustOpenP2(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FS != nil {
		keepSealKey(t, cfg.FS, s.sealKey)
	}
	return s
}

// sealKeys maps the file system of each store a test opened to the store's
// sealing key, for the helpers that read the state sealed on it
// (manifestRuns).
var sealKeys sync.Map

// keepSealKey records key as the sealing key of fs until t ends.
func keepSealKey(t testing.TB, fs vfs.FS, key [32]byte) {
	sealKeys.Store(fs, key)
	t.Cleanup(func() { sealKeys.Delete(fs) })
}

// lookupRun and scanRun are the untrusted side of a one-run GET / SCAN for
// the run with the given ID, through a snapshot of the current version.
func lookupRun(s *Store, id uint64, key []byte, tsq uint64) (lsm.RunLookup, error) {
	snap := s.Engine().AcquireSnapshot()
	defer snap.Release()
	for i, r := range snap.Runs() {
		if r.ID == id {
			return snap.LookupRun(i, key, tsq)
		}
	}
	return lsm.RunLookup{}, lsm.ErrUnknownRun
}

func scanRun(s *Store, id uint64, start, end []byte) (lsm.RunScan, error) {
	snap := s.Engine().AcquireSnapshot()
	defer snap.Release()
	for i, r := range snap.Runs() {
		if r.ID == id {
			return snap.ScanRunChunk(i, start, end, 0)
		}
	}
	return lsm.RunScan{}, lsm.ErrUnknownRun
}

// spanOf is what scanChunk copies of a per-run range result the host
// collected: the rows without their proofs, the proofs of the first and last
// key, and the two brackets.
func spanOf(rs lsm.RunScan) *runSpan {
	sp := &runSpan{runID: rs.RunID, pred: rs.Pred, succ: rs.Succ}
	for i, rec := range rs.Records {
		if i == 0 {
			sp.first = rec.Proof
		}
		if i == 0 || !bytes.Equal(rec.Key, rs.Records[i-1].Key) {
			sp.last = rec.Proof
		}
		rec.Proof = nil
		sp.rows = append(sp.rows, rec)
	}
	return sp
}

// scanVerdict verifies rs over [start, end] with no node cache and again
// with warm, a verifier whose cache an honest scan of the range has filled.
// A range result is accepted or rejected whatever the cache holds: the two
// verdicts must agree, and the cold one is returned.
func scanVerdict(t *testing.T, warm *verifier, start, end []byte, rs lsm.RunScan, d runDigest) error {
	t.Helper()
	cold := noCache.verifyRunScan(start, end, spanOf(rs), d, &spanScratch{})
	if err := warm.verifyRunScan(start, end, spanOf(rs), d, &spanScratch{}); (err == nil) != (cold == nil) {
		t.Fatalf("cold cache says %v, warm cache says %v", cold, err)
	}
	return cold
}

// earlyStopCfg is the configuration of TestGetEarlyStopCounts' tree: only
// explicit flushes make runs, nothing compacts them, and no block cache
// stands between a Get and the table files.
func earlyStopCfg(fs vfs.FS) Config {
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.DisableCompaction = true
	return cfg
}

// earlyStopTree writes TestGetEarlyStopCounts' tree of three runs, oldest
// first: {deep, gone, shared}, {mid}, then {new, shared} and a tombstone
// for gone.
func earlyStopTree(t *testing.T, s *Store) []lsm.RunRef {
	t.Helper()
	for _, keys := range [][]string{{"deep", "gone", "shared"}, {"mid"}, {"new", "shared"}} { // oldest run first
		for _, k := range keys {
			if _, err := Put(s, []byte(k), []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if keys[0] == "new" {
			if _, err := Delete(s, []byte("gone")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	runs := s.Engine().Runs()
	if len(runs) != 3 {
		t.Fatalf("%d runs, want 3", len(runs))
	}
	return runs
}

// TestGetEarlyStopCounts is the paper's first difference from Speicher
// (§7, Lemma 5.4) as counts on one fixed tree of three runs: a GET stops at
// the first verified hit, so a key whose newest version is in the newest run
// proves that run alone and reads exactly that record's proof. Every run it
// does not prove is one whose key filter rules the key out: a key only in
// the deepest run proves that run alone and filters the two above it, and a
// key in none proves nothing. A second Get of a key proves nothing either:
// the run that answered it answers again from the verified-record cache.
func TestGetEarlyStopCounts(t *testing.T) {
	s := mustOpenP2(t, earlyStopCfg(nil))
	defer s.Close()
	runs := earlyStopTree(t, s)
	newest, err := lookupRun(s, runs[0].ID, []byte("shared"), record.MaxTs)
	if err != nil || !newest.Found {
		t.Fatalf("newest run lookup of shared: found=%v err=%v", newest.Found, err)
	}
	for _, tc := range []struct {
		key                      string
		found                    bool
		probed, filtered, cached uint64
		proofBytes               uint64 // 0: not checked unless nothing is proved
	}{
		{"shared", true, 1, 0, 0, uint64(len(newest.Rec.Proof))},
		{"deep", true, 1, 2, 0, 0},
		{"absent", false, 0, 3, 0, 0},
		{"shared", true, 0, 0, 1, 0},
	} {
		before := s.VerifyStatsSnapshot()
		res, err := Get(s, []byte(tc.key))
		if err != nil || res.Found != tc.found {
			t.Fatalf("get %q: found=%v err=%v, want found=%v", tc.key, res.Found, err, tc.found)
		}
		after := s.VerifyStatsSnapshot()
		if got := after.RunsProbed - before.RunsProbed; got != tc.probed {
			t.Errorf("get %q proved %d runs, want %d", tc.key, got, tc.probed)
		}
		if got := after.RunsFiltered - before.RunsFiltered; got != tc.filtered {
			t.Errorf("get %q filtered %d runs, want %d", tc.key, got, tc.filtered)
		}
		if got := after.RunsCached - before.RunsCached; got != tc.cached {
			t.Errorf("get %q answered %d runs from the cache, want %d", tc.key, got, tc.cached)
		}
		if got := after.ProofBytes - before.ProofBytes; (tc.proofBytes != 0 || tc.probed == 0) && got != tc.proofBytes {
			t.Errorf("get %q read %d proof bytes, want %d", tc.key, got, tc.proofBytes)
		}
	}
}

func TestBulkLoadVerified(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	var recs []record.Record
	for i := 0; i < 4000; i++ {
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
	for _, i := range []int{0, 1, 1999, 3999} {
		res, err := Get(s, recs[i].Key)
		if err != nil || !res.Found || !bytes.Equal(res.Value, recs[i].Value) {
			t.Fatalf("bulk key %d: %+v err=%v", i, res, err)
		}
	}
	out, err := Scan(s, []byte("key000100"), []byte("key000199"))
	if err != nil || len(out) != 100 {
		t.Fatalf("bulk scan: %d results err=%v", len(out), err)
	}
}

// ---------------------------------------------------------------------------
// Attack scenarios: the malicious host tampers with out-of-enclave state.

func TestAttackStaleResultDetected(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	ts1, _ := Put(s, []byte("target"), []byte("old"))
	Put(s, []byte("target"), []byte("new"))
	// Push both versions into one on-disk run so they share a chain.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runs := s.Engine().Runs()
	if len(runs) != 1 {
		t.Fatalf("runs = %d", len(runs))
	}
	id := runs[0].ID
	// The honest host would return the new version; a malicious host
	// replays the old record (with its valid embedded proof).
	staleLk, err := lookupRun(s, id, []byte("target"), ts1)
	if err != nil || !staleLk.Found {
		t.Fatalf("stale lookup: %+v err=%v", staleLk, err)
	}
	d := s.snapshotDigests()[id]
	if err := noCache.verifyMembership([]byte("target"), record.MaxTs, staleLk.Rec, d); !errors.Is(err, ErrStale) {
		t.Fatalf("stale record accepted as latest: %v", err)
	}
	// The same record IS valid for a historical query at ts1.
	if err := noCache.verifyMembership([]byte("target"), ts1, staleLk.Rec, d); err != nil {
		t.Fatalf("historically valid record rejected: %v", err)
	}
}

func TestAttackForgedValueDetected(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	Put(s, []byte("k"), []byte("honest"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Engine().Runs()[0].ID
	lk, err := lookupRun(s, id, []byte("k"), record.MaxTs)
	if err != nil || !lk.Found {
		t.Fatal("honest lookup failed")
	}
	d := s.snapshotDigests()[id]
	forged := lk.Rec
	forged.Value = []byte("forged!")
	if err := noCache.verifyMembership([]byte("k"), record.MaxTs, forged, d); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("forged value accepted: %v", err)
	}
	// Forged timestamp also fails.
	forged = lk.Rec
	forged.Ts += 100
	if err := noCache.verifyMembership([]byte("k"), record.MaxTs, forged, d); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("forged timestamp accepted: %v", err)
	}
}

func TestAttackFakeNonMembershipDetected(t *testing.T) {
	// The host claims key0050 (present) is absent, presenting its honest
	// neighbours key0049/key0051 as the bracket — their leaf indices are
	// not adjacent, so the claim must fail.
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	for i := 0; i < 100; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Engine().Runs()[0].ID
	d := s.snapshotDigests()[id]
	predLk, err := lookupRun(s, id, []byte("key0049"), record.MaxTs)
	if err != nil || !predLk.Found {
		t.Fatal("pred lookup failed")
	}
	succLk, err := lookupRun(s, id, []byte("key0051"), record.MaxTs)
	if err != nil || !succLk.Found {
		t.Fatal("succ lookup failed")
	}
	fake := predLk
	fake.Found = false
	fake.Pred = &predLk.Rec
	fake.Succ = &succLk.Rec
	if err := noCache.verifyNonMembership([]byte("key0050"), record.MaxTs, fake, d); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("fake non-membership accepted: %v", err)
	}
}

func TestAttackScanOmissionDetected(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	for i := 0; i < 200; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Engine().Runs()[0].ID
	d := s.snapshotDigests()[id]
	rs, err := scanRun(s, id, []byte("key0050"), []byte("key0070"))
	if err != nil {
		t.Fatal(err)
	}
	warm := &verifier{nodes: merkle.NewNodeCache()}
	verify := func(rs lsm.RunScan) error {
		return scanVerdict(t, warm, []byte("key0050"), []byte("key0070"), rs, d)
	}
	if err := verify(rs); err != nil {
		t.Fatalf("honest scan rejected: %v", err)
	}

	// Omit an interior record.
	dropMid := rs
	dropMid.Records = append(append([]record.Record(nil), rs.Records[:10]...), rs.Records[11:]...)
	if err := verify(dropMid); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("interior omission accepted: %v", err)
	}

	// Omit the first record (shift the range).
	dropHead := rs
	dropHead.Records = rs.Records[1:]
	if err := verify(dropHead); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("head omission accepted: %v", err)
	}

	// Omit the tail.
	dropTail := rs
	dropTail.Records = rs.Records[:len(rs.Records)-1]
	if err := verify(dropTail); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("tail omission accepted: %v", err)
	}

	// Forge a value inside the range.
	forge := rs
	forge.Records = append([]record.Record(nil), rs.Records...)
	forge.Records[5].Value = []byte("forged")
	if err := verify(forge); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("forged scan value accepted: %v", err)
	}

	// Claim the whole range is empty.
	empty := rs
	empty.Records = nil
	if err := verify(empty); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("empty-range lie accepted: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Recovery

// ---------------------------------------------------------------------------
// Cross-implementation equivalence

func TestEquivalenceAcrossStores(t *testing.T) {
	mkStores := func() map[string]KV {
		p2, err := Open(smallCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		p1cfg := smallCfg(nil)
		p1cfg.CacheSize = 1 << 20
		p1, err := OpenP1(p1cfg)
		if err != nil {
			t.Fatal(err)
		}
		un, err := OpenUnsecured(smallCfg(nil))
		if err != nil {
			t.Fatal(err)
		}
		return map[string]KV{"p2": p2, "p1": p1, "unsecured": un}
	}
	stores := mkStores()
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	ref := map[string]string{}
	rnd := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		op := rnd.Intn(10)
		key := fmt.Sprintf("key%03d", rnd.Intn(300))
		switch {
		case op < 6: // put
			val := fmt.Sprintf("v%d", i)
			ref[key] = val
			for name, s := range stores {
				if _, err := Put(s, []byte(key), []byte(val)); err != nil {
					t.Fatalf("%s put: %v", name, err)
				}
			}
		case op < 7: // delete
			delete(ref, key)
			for name, s := range stores {
				if _, err := Delete(s, []byte(key)); err != nil {
					t.Fatalf("%s delete: %v", name, err)
				}
			}
		default: // get
			for name, s := range stores {
				res, err := Get(s, []byte(key))
				if err != nil {
					t.Fatalf("%s get %q: %v", name, key, err)
				}
				want, ok := ref[key]
				if res.Found != ok || (ok && string(res.Value) != want) {
					t.Fatalf("%s get %q = (%q,%v), want (%q,%v)", name, key, res.Value, res.Found, want, ok)
				}
			}
		}
	}
	// Final scan equivalence.
	for name, s := range stores {
		out, err := Scan(s, []byte("key000"), []byte("key299"))
		if err != nil {
			t.Fatalf("%s scan: %v", name, err)
		}
		if len(out) != len(ref) {
			t.Fatalf("%s scan %d results, want %d", name, len(out), len(ref))
		}
		for _, r := range out {
			if ref[string(r.Key)] != string(r.Value) {
				t.Fatalf("%s scan %q = %q want %q", name, r.Key, r.Value, ref[string(r.Key)])
			}
		}
	}
}

func TestProofEncodeDecodeRoundTrip(t *testing.T) {
	p := &EmbeddedProof{
		LeafIndex: 12345,
		Newer:     []ChainEntry{{Ts: 7}, {Ts: 9}},
		Path:      nil,
	}
	p.Newer[0].RecDigest[0] = 0xaa
	p.Inner[3] = 0xbb
	enc := p.Encode()
	got, err := DecodeProof(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeafIndex != p.LeafIndex || len(got.Newer) != 2 || got.Newer[0].Ts != 7 ||
		got.Newer[0].RecDigest != p.Newer[0].RecDigest || got.Inner != p.Inner {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Truncations rejected.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeProof(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
