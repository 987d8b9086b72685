package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"elsm/internal/bloom"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// runFilterOf returns the key filter the store's trusted state holds for run
// id, nil if it holds none.
func runFilterOf(s *Store, id uint64) bloom.Filter { return liveFilters(s)[id] }

// liveFilters returns the key filter of every run in the store's trusted
// state that has one, by run ID.
func liveFilters(s *Store) map[uint64]bloom.Filter {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]bloom.Filter)
	for id, tr := range s.trusted {
		if f := tr.filter; f != nil {
			out[id] = f.keys
		}
	}
	return out
}

// reopenWith closes s and opens its files again with the same root of trust
// under cfg, which names the files s was opened on.
func reopenWith(t *testing.T, s *Store, cfg Config) *Store {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Platform, cfg.Counter = s.platform, s.counter
	return mustOpenP2(t, cfg)
}

// getCounts runs one verified Get and returns the runs it proved and
// filtered and the proof bytes it copied.
func getCounts(t *testing.T, s *Store, key string) (res Result, probed, filtered, proofBytes uint64, err error) {
	t.Helper()
	before := s.VerifyStatsSnapshot()
	res, err = Get(s, []byte(key))
	after := s.VerifyStatsSnapshot()
	return res, after.RunsProbed - before.RunsProbed, after.RunsFiltered - before.RunsFiltered, after.ProofBytes - before.ProofBytes, err
}

// swapWitnesses is the host that hands a Get of an absent key its bracketing
// pair the wrong way round, in run id.
func swapWitnesses(id uint64) func(*lsm.RunViews, bool) {
	return func(v *lsm.RunViews, copied bool) {
		if !copied && v.RunID == id {
			v.Pred, v.Succ = v.Succ, v.Pred
		}
	}
}

// TestFilteredGetReadsNoBlock: on TestGetEarlyStopCounts' tree an absent key
// is ruled out by all three runs' key filters, so its Get proves nothing and
// asks the host for no block at all.
func TestFilteredGetReadsNoBlock(t *testing.T) {
	ffs := vfs.NewFault(vfs.NewMem())
	s := mustOpenP2(t, earlyStopCfg(ffs))
	defer s.Close()
	earlyStopTree(t, s)
	ffs.ArmFilter(vfs.OpReadAt, "*.sst")
	res, probed, filtered, proofBytes, err := getCounts(t, s, "absent")
	if err != nil || res.Found {
		t.Fatalf("Get(absent) = %+v, %v", res, err)
	}
	if probed != 0 || filtered != 3 || proofBytes != 0 {
		t.Errorf("Get(absent) proved %d runs and filtered %d with %d proof bytes, want 0, 3 and 0", probed, filtered, proofBytes)
	}
	if reads := ffs.MatchingOps(); reads != 0 {
		t.Errorf("Get(absent) read %d blocks, want none", reads)
	}
	if _, err := Get(s, []byte("deep")); err != nil || ffs.MatchingOps() == 0 {
		t.Fatalf("Get(deep) = %v after %d block reads: the count sees no reads", err, ffs.MatchingOps())
	}
}

// TestFilteredGetStopsAtATombstone: a key deleted in the newest run is a leaf
// of that run, so its key filter passes it, and the Get stops at the
// tombstone — not found, one run proved — although the oldest run still holds
// the key live.
func TestFilteredGetStopsAtATombstone(t *testing.T) {
	s := mustOpenP2(t, earlyStopCfg(nil))
	defer s.Close()
	runs := earlyStopTree(t, s)
	for _, r := range []lsm.RunRef{runs[0], runs[2]} {
		if !runFilterOf(s, r.ID).MayContain([]byte("gone")) {
			t.Fatalf("run %d's filter rules out gone, one of its keys", r.ID)
		}
	}
	res, probed, filtered, proofBytes, err := getCounts(t, s, "gone")
	if err != nil || res.Found {
		t.Fatalf("Get(gone) = %+v, %v; want not found", res, err)
	}
	if probed != 1 || filtered != 0 || proofBytes == 0 {
		t.Errorf("Get(gone) proved %d runs and filtered %d with %d proof bytes, want the newest run proved alone", probed, filtered, proofBytes)
	}
	if old, err := lookupRun(s, runs[2].ID, []byte("gone"), record.MaxTs); err != nil || !old.Found || old.Rec.Kind != record.KindSet {
		t.Fatalf("the oldest run holds gone: found=%v err=%v", old.Found, err)
	}
}

// TestFilterFalsePositiveIsProved: a key the newest run lacks but its key
// filter passes — the first of a fixed list — gets the run's non-membership
// proof as a Get without filters would, and a forged bracketing pair for it
// fails verification.
func TestFilterFalsePositiveIsProved(t *testing.T) {
	s := mustOpenP2(t, earlyStopCfg(nil))
	defer s.Close()
	runs := earlyStopTree(t, s)
	newest := runFilterOf(s, runs[0].ID)
	key := ""
	for i := 0; i < 10_000_000 && key == ""; i++ {
		if k := fmt.Sprintf("p%07d", i); newest.MayContain([]byte(k)) { // between new and shared
			key = k
		}
	}
	if key == "" {
		t.Fatal("no false positive in the list")
	}
	var passes uint64
	for _, r := range runs {
		if runFilterOf(s, r.ID).MayContain([]byte(key)) {
			passes++
		}
	}
	res, probed, filtered, proofBytes, err := getCounts(t, s, key)
	if err != nil || res.Found {
		t.Fatalf("Get(%s) = %+v, %v", key, res, err)
	}
	if probed != passes || filtered != 3-passes || proofBytes == 0 {
		t.Errorf("Get(%s) proved %d runs and filtered %d with %d proof bytes, want %d proved", key, probed, filtered, proofBytes, passes)
	}
	s.getTamper = swapWitnesses(runs[0].ID)
	if _, err := Get(s, []byte(key)); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Get(%s) with a forged pair: %v, want ErrAuthFailed", key, err)
	}
}

// cycledStore makes the store of the lifecycle tests: 100 paced cycles of
// writes over 2 000 keys, each ended by a flush and the compactions it
// leaves due.
func cycledStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s := mustOpenP2(t, cfg)
	rng := rand.New(rand.NewSource(7))
	for cycle := 0; cycle < 100; cycle++ {
		ops := make([]BatchOp, 40)
		for i := range ops {
			ops[i] = BatchOp{Key: []byte(fmt.Sprintf("key%05d", rng.Intn(2000))), Value: []byte(fmt.Sprintf("cycle-%03d-value-%030d", cycle, i))}
			if i%9 == 8 {
				ops[i].Delete = true
			}
		}
		if _, err := s.Commit(nil, ops); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Engine().WaitMaintenance(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Engine().Stats(); st.Compactions == 0 || len(s.Engine().Runs()) < 2 {
		t.Fatalf("%d compactions, %d runs: the cycles built no tree", st.Compactions, len(s.Engine().Runs()))
	}
	return s
}

// checkEnclaveBytes holds a quiet store's enclave to its accounts: the fixed
// budgets of the verified caches and the read scratch, and the live runs' key
// filters, each of which has one. A P2 table's index is the host's, so it is
// not charged; an active memtable that holds nothing holds no bytes.
func checkEnclaveBytes(t *testing.T, s *Store) {
	t.Helper()
	fixed := merkle.NodeCacheBytes + recordCacheBytes + scanScratchSlots*scanScratchBytes + readScratchSlots*readScratchBytes
	live := liveFilters(s)
	filters := 0
	for id, f := range live {
		if !slices.ContainsFunc(s.Engine().Runs(), func(r lsm.RunRef) bool { return r.ID == id }) {
			t.Errorf("run %d has a filter but is not live", id)
		}
		filters += len(f)
	}
	for _, r := range s.Engine().Runs() {
		if len(live[r.ID]) == 0 {
			t.Errorf("live run %d has no filter", r.ID)
		}
	}
	if got, want := s.Enclave().Stats().EnclaveBytes, uint64(fixed+filters); got != want {
		t.Errorf("EnclaveBytes %d, want %d: %d fixed + %d filters", got, want, fixed, filters)
	}
}

// TestFilterBytesAreAccounted: after 100 flush and compaction cycles the
// enclave holds exactly its fixed budgets and the
// live runs' filters — every filter of a run compacted away was freed.
func TestFilterBytesAreAccounted(t *testing.T) {
	fs := vfs.NewMem()
	s := cycledStore(t, smallCfg(fs))
	defer s.Close()
	checkEnclaveBytes(t, s)
}

// TestReopenLoadsFilters: every run's first table stores the key filter the
// enclave built at install, and a reopened store loads it as it opens, with
// no pass over the run's records: right after Open every live run has its
// filter back byte for byte, and an absent key is proved in no run.
func TestReopenLoadsFilters(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := cycledStore(t, cfg)
	want := map[uint64]string{}
	for id, f := range liveFilters(s) {
		want[id] = string(f)
	}
	s = reopenWith(t, s, cfg)
	defer s.Close()
	runs := s.Engine().Runs()
	if len(runs) != len(want) {
		t.Fatalf("%d runs reopened, %d had filters", len(runs), len(want))
	}
	for _, r := range runs {
		if got := runFilterOf(s, r.ID); string(got) != want[r.ID] {
			t.Errorf("run %d: loaded filter of %d bytes differs from the %d bytes built at install", r.ID, len(got), len(want[r.ID]))
		}
	}
	checkEnclaveBytes(t, s)
	if res, probed, filtered, _, err := getCounts(t, s, "key00100~"); err != nil || res.Found || probed != 0 || filtered != uint64(len(runs)) {
		t.Fatalf("Get(key00100~) = %+v, %v, proving %d runs and filtering %d of %d", res, err, probed, filtered, len(runs))
	}
}

// TestTamperedRunGetsNoFilter: a run whose records the host changed at rest
// keeps its key filter — the stored filter is held to the hash sealed in the
// run's digest, not to the records — and that is safe: a Get that reaches
// the tampered record is proved and fails, while a Get the newest run
// answers succeeds.
func TestTamperedRunGetsNoFilter(t *testing.T) {
	fs := vfs.NewMem()
	cfg := earlyStopCfg(fs)
	s := mustOpenP2(t, cfg)
	runs := earlyStopTree(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for name, img := range tableFiles(t, fs) {
		at := bytes.Index(img, []byte("v-mid"))
		if at < 0 {
			continue
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("V"), int64(at)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		tampered++
	}
	if tampered != 1 {
		t.Fatalf("%d tables hold mid's value, want 1", tampered)
	}
	s = reopenWith(t, s, cfg)
	defer s.Close()
	for i, r := range runs {
		if runFilterOf(s, r.ID) == nil {
			t.Errorf("run %d (the tampered one: %v) has no filter", r.ID, i == 1)
		}
	}
	if _, err := Get(s, []byte("mid")); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Get(mid) from the tampered run: %v, want ErrAuthFailed", err)
	}
	if res, err := Get(s, []byte("shared")); err != nil || !res.Found {
		t.Fatalf("Get(shared) from the newest run = %+v, %v", res, err)
	}
}

// TestFilterLoadCopiesBeforeItHashes plays the host that rewrites a run's
// stored filter bytes once Open has checked them, clearing every bit — a
// filter that ruled out every key. The enclave hashed, and keeps, its own
// copy: every loaded filter is still the one built at install, and every
// Get answers as before.
func TestFilterLoadCopiesBeforeItHashes(t *testing.T) {
	cfg := earlyStopCfg(vfs.NewMem())
	s := mustOpenP2(t, cfg)
	runs := earlyStopTree(t, s)
	want := map[uint64]string{}
	for id, f := range liveFilters(s) {
		want[id] = string(f)
	}
	keys := []string{"deep", "gone", "mid", "new", "shared", "absent"}
	answers := answersOf(t, s, keys)
	s = reopenWith(t, s, cfg)
	defer s.Close()
	s.mu.Lock()
	trusted := maps.Clone(s.trusted)
	s.mu.Unlock()
	var stored [][]byte
	s.Engine().SetRunTrust(func(id uint64, runFilter []byte) any {
		stored = append(stored, runFilter)
		return trusted[id]
	})
	if len(stored) != len(runs) {
		t.Fatalf("%d stored filters for %d runs", len(stored), len(runs))
	}
	for _, b := range stored {
		clear(b[:len(b)-1]) // the last byte is the probe count
	}
	for _, r := range runs {
		if got := runFilterOf(s, r.ID); string(got) != want[r.ID] {
			t.Errorf("run %d: filter %x after the host cleared its bytes, built %x", r.ID, got, want[r.ID])
		}
	}
	s.emptyRecordCache()
	if got := answersOf(t, s, keys); got != answers {
		t.Errorf("Gets after the host cleared the stored filters:\n%s\nwant\n%s", got, answers)
	}
}

// answersOf is what the store answers a Get of each key and a GetAt of each at
// every timestamp it has applied, one line a read.
func answersOf(t *testing.T, s *Store, keys []string) string {
	t.Helper()
	var out strings.Builder
	for _, k := range keys {
		res, err := Get(s, []byte(k))
		fmt.Fprintf(&out, "Get(%s) = %q@%d %v %v\n", k, res.Value, res.Ts, res.Found, err)
		for ts := uint64(1); ts <= s.Engine().AppliedTs(); ts++ {
			res, err := s.GetAt(context.Background(), []byte(k), ts)
			fmt.Fprintf(&out, "GetAt(%s, %d) = %q@%d %v %v\n", k, ts, res.Value, res.Ts, res.Found, err)
		}
	}
	return out.String()
}

// firstTables names the first table of each run of s, by run ID: the one
// that stores the run's key filter.
func firstTables(s *Store) map[uint64]string {
	snap := s.Engine().AcquireSnapshot()
	defer snap.Release()
	out := map[uint64]string{}
	for _, r := range snap.CheckpointRuns() {
		out[r.ID] = r.Tables[0].Name
	}
	return out
}

// storedFilter returns the run filter a table image stores after its filter
// block's count of 0, and the image with forge's bytes stored instead: the
// index and footer move to follow them, as a host rewriting the file would
// lay it out.
func storedFilter(img []byte, forge func([]byte) []byte) (stored, forged []byte) {
	ft := img[len(img)-48:]
	filterOff := binary.BigEndian.Uint64(ft[0:8]) + 4
	filterEnd := binary.BigEndian.Uint64(ft[0:8]) + binary.BigEndian.Uint64(ft[8:16])
	indexOff, indexLen := binary.BigEndian.Uint64(ft[16:24]), binary.BigEndian.Uint64(ft[24:32])
	stored = img[filterOff:filterEnd]
	if forge == nil {
		return stored, nil
	}
	payload := forge(bytes.Clone(stored))
	forged = append(slices.Clone(img[:filterOff]), payload...)
	at := len(forged)
	forged = append(forged, img[indexOff:indexOff+indexLen]...)
	forged = append(forged, ft...)
	footer := forged[len(forged)-48:]
	binary.BigEndian.PutUint64(footer[8:16], uint64(4+len(payload)))
	binary.BigEndian.PutUint64(footer[16:24], uint64(at))
	return stored, forged
}

// TestRestoredRunsGetFilters: a follower bootstrapped from a checkpoint
// loads, when it opens, the key filter of every run it restored, byte for
// byte the one the leader built when it installed the run.
func TestRestoredRunsGetFilters(t *testing.T) {
	s := mustOpenP2(t, earlyStopCfg(vfs.NewMem()))
	defer s.Close()
	runs := earlyStopTree(t, s)
	fs, ctr := vfs.NewMem(), sgx.NewMonotonicCounter()
	if err := RestoreCheckpoint(bytes.NewReader(exportBuf(t, s)), RestoreConfig{FS: fs, Platform: s.platform, Counter: ctr}); err != nil {
		t.Fatal(err)
	}
	cfg := earlyStopCfg(fs)
	cfg.Platform, cfg.Counter = s.platform, ctr
	f := mustOpenP2(t, cfg)
	defer f.Close()
	for _, r := range runs {
		if got, want := runFilterOf(f, r.ID), runFilterOf(s, r.ID); got == nil || !bytes.Equal(got, want) {
			t.Errorf("restored run %d: filter of %d bytes, the leader's is %d", r.ID, len(got), len(want))
		}
	}
}
