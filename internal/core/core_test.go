package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// smallCfg forces frequent flushes/compactions with little data.
func smallCfg(fs vfs.FS) Config {
	return Config{
		FS:            fs,
		MemtableSize:  4 << 10,
		BlockSize:     512,
		TableFileSize: 4 << 10,
		LevelBase:     16 << 10,
		MaxLevels:     5,
		KeepVersions:  0, // retain history: exercises version chains
	}
}

func mustOpenP2(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
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

func TestPutGetVerified(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	want := map[string]string{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key%05d", i%700)
		val := fmt.Sprintf("val%d", i)
		if _, err := Put(s, []byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	if s.Engine().Stats().Compactions == 0 {
		t.Fatal("test did not exercise compaction")
	}
	for key, val := range want {
		res, err := Get(s, []byte(key))
		if err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		if !res.Found || string(res.Value) != val {
			t.Fatalf("get %q = %q found=%v, want %q", key, res.Value, res.Found, val)
		}
	}
	// Verified non-membership for absent keys (early-stop across levels).
	for _, k := range []string{"aaa", "key99999", "zzz", "key00000a"} {
		res, err := Get(s, []byte(k))
		if err != nil {
			t.Fatalf("absent get %q: %v", k, err)
		}
		if res.Found {
			t.Fatalf("found absent key %q", k)
		}
	}
}

func TestHistoricalGetVerified(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	var tss []uint64
	for i := 0; i < 10; i++ {
		ts, err := Put(s, []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tss = append(tss, ts)
		// Interleave other keys to force flushes.
		for j := 0; j < 200; j++ {
			Put(s, []byte(fmt.Sprintf("fill%d-%d", i, j)), bytes.Repeat([]byte("x"), 64))
		}
	}
	for i, ts := range tss {
		res, err := s.GetAt(nil, []byte("k"), ts)
		if err != nil {
			t.Fatalf("historical get @%d: %v", ts, err)
		}
		if !res.Found || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("@%d = %q found=%v", ts, res.Value, res.Found)
		}
	}
	// Before the first version: verified absence.
	res, err := s.GetAt(nil, []byte("k"), tss[0]-1)
	if err != nil {
		t.Fatalf("pre-history get: %v", err)
	}
	if res.Found {
		t.Fatal("found record before its first version")
	}
}

func TestDeleteVerified(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	Put(s, []byte("k"), []byte("v"))
	delTs, err := Delete(s, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := Get(s, []byte("k"))
	if err != nil {
		t.Fatalf("get after delete: %v", err)
	}
	if res.Found {
		t.Fatal("deleted key still found")
	}
	// Historical read before the delete still verifies.
	res, err = s.GetAt(nil, []byte("k"), delTs-1)
	if err != nil {
		t.Fatal(err)
	}
	_ = res // may or may not be found depending on tombstone GC policy at bottom level
}

func TestScanVerified(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	for i := 0; i < 1000; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Overwrite some keys so scans cross version chains.
	for i := 0; i < 100; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i*10)), []byte(fmt.Sprintf("new%d", i)))
	}
	out, err := Scan(s, []byte("key0100"), []byte("key0149"))
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(out) != 50 {
		t.Fatalf("scan returned %d results", len(out))
	}
	for i, r := range out {
		wantKey := fmt.Sprintf("key%04d", 100+i)
		if string(r.Key) != wantKey {
			t.Fatalf("result %d key = %q want %q", i, r.Key, wantKey)
		}
		wantVal := fmt.Sprintf("v%d", 100+i)
		if (100+i)%10 == 0 {
			wantVal = fmt.Sprintf("new%d", (100+i)/10)
		}
		if string(r.Value) != wantVal {
			t.Fatalf("result %q = %q want %q", r.Key, r.Value, wantVal)
		}
	}
	// Empty range scans verify too.
	out, err = Scan(s, []byte("zzz0"), []byte("zzz9"))
	if err != nil {
		t.Fatalf("empty scan: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("empty scan returned %d", len(out))
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

func TestAttackCorruptSSTableDetected(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, smallCfg(fs))
	defer s.Close()
	for i := 0; i < 2000; i++ {
		Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("val%d", i)))
	}
	// Let background flushes and compactions finish first: one still running
	// would read the files while they are being corrupted, or replace the
	// corrupted files with clean rewrites before anything reads them.
	if err := s.Engine().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List("0")
	if len(names) == 0 {
		t.Fatal("no sstables on disk")
	}
	// Flip a byte in every 97 of every data file, so that every record is
	// hit where it matters (key, timestamp, value, framing) and not only in
	// the sibling hashes of its proof — most of a table's bytes — which a
	// walk that stops at an already-verified node never reads: a flip
	// there is harmless, not undetected.
	for _, name := range names {
		f, _ := fs.Open(name)
		for off := f.Size() / 3 % 97; off < f.Size(); off += 97 {
			fs.Corrupt(name, off)
		}
	}
	// Every key must now either verify (if its record was untouched) or
	// fail with an authentication error — never return wrong data.
	authFailures := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key%05d", i)
		res, err := Get(s, []byte(key))
		switch {
		case err != nil:
			authFailures++
		case res.Found && string(res.Value) != fmt.Sprintf("val%d", i):
			t.Fatalf("silent corruption: %q = %q", key, res.Value)
		case !res.Found:
			// A verified non-membership for a present key would be a
			// completeness violation; but corrupt blocks fail before
			// that. Treat as failure for accounting.
			authFailures++
		}
	}
	if authFailures == 0 {
		t.Fatal("no corruption detected across 2000 reads")
	}
}

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

func TestAttackRollbackDetected(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := mustOpenP2(t, cfg)
	for i := 0; i < 500; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte("v1"))
	}
	s.Flush()
	snapshot := fs.Clone() // the attacker snapshots an old authenticated state
	for i := 0; i < 500; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte("v2"))
	}
	s.Flush()
	s.Close()

	// Rollback attack: restore the old files and reopen with the same
	// (persistent) platform and counter.
	fs.Restore(snapshot)
	cfg.Platform = s.platform
	cfg.Counter = s.counter
	if _, err := Open(cfg); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("rollback not detected: %v", err)
	}
}

func TestAttackCompactionInputTamperDetected(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, smallCfg(fs))
	defer s.Close()
	for i := 0; i < 1000; i++ {
		Put(s, []byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte("v"), 32))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tamper with an on-disk input file, then force a compaction over it.
	// Corrupt densely: most file bytes are embedded proofs, which
	// compaction legitimately ignores (it rebuilds them), so a single
	// flipped byte may not touch authenticated record content.
	names, _ := fs.List("0")
	if len(names) == 0 {
		t.Fatal("no tables")
	}
	f, _ := fs.Open(names[0])
	for off := int64(0); off < f.Size()/2; off += 37 {
		fs.Corrupt(names[0], off)
	}
	err := s.Compact(s.Engine().Runs()[0].Level)
	if err == nil {
		t.Fatal("compaction over tampered input succeeded")
	}
}

func TestAttackTrustedStateDeletionDetected(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := mustOpenP2(t, cfg)
	for i := 0; i < 500; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	s.Flush()
	s.Close()
	fs.Remove(trustedStateName)
	cfg.Platform = s.platform
	cfg.Counter = s.counter
	if _, err := Open(cfg); !errors.Is(err, ErrStateMissing) {
		t.Fatalf("missing trusted state not detected: %v", err)
	}
}

func TestAttackWALTamperDetected(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := mustOpenP2(t, cfg)
	Put(s, []byte("a"), []byte("1"))
	Put(s, []byte("b"), []byte("2"))
	s.Close() // seals state including WAL digest

	// Tamper with the WAL body: rewrite a whole valid record so the CRC
	// passes but the digest chain diverges.
	f, err := fs.Open("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the value region of the first record (CRC will catch
	// it; either CRC or digest failure is acceptable detection).
	fs.Corrupt("wal.log", f.Size()-1)
	cfg.Platform = s.platform
	cfg.Counter = s.counter
	if _, err := Open(cfg); err == nil {
		t.Fatal("tampered WAL accepted on recovery")
	}
}

// ---------------------------------------------------------------------------
// Recovery

func TestCleanRecoveryVerifies(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := mustOpenP2(t, cfg)
	want := map[string]string{}
	for i := 0; i < 1500; i++ {
		key := fmt.Sprintf("key%04d", i%400)
		val := fmt.Sprintf("v%d", i)
		Put(s, []byte(key), []byte(val))
		want[key] = val
	}
	s.Close()

	cfg.Platform = s.platform
	cfg.Counter = s.counter
	s2 := mustOpenP2(t, cfg)
	defer s2.Close()
	if n := s2.UnverifiedReplay(); n != 0 {
		t.Fatalf("clean close left %d unverified records", n)
	}
	for key, val := range want {
		res, err := Get(s2, []byte(key))
		if err != nil || !res.Found || string(res.Value) != val {
			t.Fatalf("after recovery %q: %+v err=%v", key, res, err)
		}
	}
	// Writes continue and verify.
	if _, err := Put(s2, []byte("post"), []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	res, err := Get(s2, []byte("post"))
	if err != nil || !res.Found {
		t.Fatalf("post-recovery put/get: %+v err=%v", res, err)
	}
}

func TestUncleanRecoveryCountsUnverifiedSuffix(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	cfg.CounterInterval = 10
	s := mustOpenP2(t, cfg)
	for i := 0; i < 25; i++ { // interval 10: seals at 10 and 20; 5 dangling
		Put(s, []byte(fmt.Sprintf("key%02d", i)), []byte("v"))
	}
	// Simulate crash: do NOT Close (no final seal).
	s.Engine().Close()

	cfg2 := smallCfg(fs)
	cfg2.Platform = s.platform
	cfg2.Counter = s.counter
	s2 := mustOpenP2(t, cfg2)
	defer s2.Close()
	if n := s2.UnverifiedReplay(); n != 5 {
		t.Fatalf("unverified suffix = %d, want 5", n)
	}

	// Strict mode refuses the same recovery.
	s2.Close()
	cfg3 := smallCfg(fs)
	cfg3.Platform = s.platform
	cfg3.Counter = s.counter
	cfg3.RequireCleanRecovery = true
	// After s2's Close the state is sealed again, so re-crash first.
	s3 := mustOpenP2(t, cfg3)
	Put(s3, []byte("zz"), []byte("dangling"))
	s3.Engine().Close() // crash without seal
	if _, err := Open(cfg3); err == nil {
		t.Fatal("strict recovery accepted unverified suffix")
	}
}

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
