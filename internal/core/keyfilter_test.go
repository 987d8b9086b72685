package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
		if f := tr.filter.Load(); f != nil {
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

// TestUnfilteredRunIsProved holds back the filter rebuild of a reopened
// store: its runs have no filter, so an absent key is proved absent in every
// run, as it was before filters, and a forged pair in any of them is caught.
// Once the rebuild is let go every run has its filter back and the same Get
// proves nothing.
func TestUnfilteredRunIsProved(t *testing.T) {
	cfg := earlyStopCfg(vfs.NewMem())
	s := mustOpenP2(t, cfg)
	runs := earlyStopTree(t, s)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cfg.holdRebuild = func(uint64) {
		once.Do(func() { close(held) })
		<-release
	}
	s = reopenWith(t, s, cfg)
	defer s.Close()
	let := sync.OnceFunc(func() { close(release) })
	defer let()
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("the reopened store started no filter rebuild")
	}
	for _, r := range runs {
		if runFilterOf(s, r.ID) != nil {
			t.Fatalf("run %d has a filter before its rebuild", r.ID)
		}
	}
	if res, probed, filtered, _, err := getCounts(t, s, "absent"); err != nil || res.Found || probed != 3 || filtered != 0 {
		t.Fatalf("Get(absent) = %+v, %v, proving %d runs and filtering %d; want 3 proved", res, err, probed, filtered)
	}
	for _, r := range runs {
		s.getTamper = swapWitnesses(r.ID)
		if _, err := Get(s, []byte("absent")); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("forged pair in unfiltered run %d: %v, want ErrAuthFailed", r.ID, err)
		}
	}
	s.getTamper = nil
	let()
	s.rebuildDone.Wait()
	if res, probed, filtered, _, err := getCounts(t, s, "absent"); err != nil || res.Found || probed != 0 || filtered != 3 {
		t.Fatalf("after the rebuild Get(absent) = %+v, %v, proving %d runs and filtering %d; want 3 filtered", res, err, probed, filtered)
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

// TestReopenRebuildsFilters: filters are never sealed, and the rebuild a
// reopened store runs gives every live run its filter back byte for byte;
// then an absent key is proved in no run.
func TestReopenRebuildsFilters(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := cycledStore(t, cfg)
	want := map[uint64]string{}
	for id, f := range liveFilters(s) {
		want[id] = string(f)
	}
	s = reopenWith(t, s, cfg)
	defer s.Close()
	s.rebuildDone.Wait()
	runs := s.Engine().Runs()
	if len(runs) != len(want) {
		t.Fatalf("%d runs reopened, %d had filters", len(runs), len(want))
	}
	for _, r := range runs {
		if got := runFilterOf(s, r.ID); string(got) != want[r.ID] {
			t.Errorf("run %d: rebuilt filter of %d bytes differs from the %d bytes built at install", r.ID, len(got), len(want[r.ID]))
		}
	}
	checkEnclaveBytes(t, s)
	if res, probed, filtered, _, err := getCounts(t, s, "key00100~"); err != nil || res.Found || probed != 0 || filtered != uint64(len(runs)) {
		t.Fatalf("Get(key00100~) = %+v, %v, proving %d runs and filtering %d of %d", res, err, probed, filtered, len(runs))
	}
}

// TestTamperedRunGetsNoFilter: a run whose bytes the host changed at rest
// does not reproduce its sealed digest in the rebuild, so it gets no filter;
// a Get that reaches it is proved and fails, while the other runs get their
// filters and a Get the newest run answers succeeds.
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
	s.rebuildDone.Wait()
	for i, r := range runs {
		if has := runFilterOf(s, r.ID) != nil; has != (i != 1) {
			t.Errorf("run %d (the tampered one: %v) has a filter: %v", r.ID, i == 1, has)
		}
	}
	if _, err := Get(s, []byte("mid")); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("Get(mid) from the tampered run: %v, want ErrAuthFailed", err)
	}
	if res, err := Get(s, []byte("shared")); err != nil || !res.Found {
		t.Fatalf("Get(shared) from the newest run = %+v, %v", res, err)
	}
}

// TestRebuildCopiesBeforeItHashes plays the host that rewrites a key in the
// block the rebuild is streaming, at the k-th record of every run, before
// the enclave copies the record or after. A rewrite before the copy makes
// the run miss its sealed digest, and the run gets no filter; one after it
// changes nothing the enclave reads. Either way, no published filter lacks a
// key of its run.
func TestRebuildCopiesBeforeItHashes(t *testing.T) {
	cfg := earlyStopCfg(vfs.NewMem())
	s := mustOpenP2(t, cfg)
	runs := earlyStopTree(t, s)
	keys := map[uint64][]string{runs[0].ID: {"gone", "new", "shared"}, runs[1].ID: {"mid"}, runs[2].ID: {"deep", "gone", "shared"}}
	for _, copied := range []bool{false, true} {
		for k := 0; k < 3; k++ {
			var n int
			var touched []uint64
			var cur uint64
			cfg.holdRebuild = func(id uint64) { cur, n = id, 0 }
			cfg.rebuildTamper = func(view record.Record, after bool) {
				if !after {
					n++
				}
				if after == copied && n == k+1 {
					view.Key[0] ^= 0x20
					touched = append(touched, cur)
				}
			}
			s = reopenWith(t, s, cfg)
			s.rebuildDone.Wait()
			for _, r := range runs {
				f := runFilterOf(s, r.ID)
				wasTouched := false
				for _, id := range touched {
					wasTouched = wasTouched || id == r.ID
				}
				if want := copied || !wasTouched; (f != nil) != want {
					t.Errorf("copied=%v k=%d: run %d (rewritten: %v) has a filter: %v, want %v", copied, k, r.ID, wasTouched, f != nil, want)
				}
				for _, key := range keys[r.ID] {
					if f != nil && !f.MayContain([]byte(key)) {
						t.Errorf("copied=%v k=%d: run %d's filter lacks %q", copied, k, r.ID, key)
					}
				}
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringRebuild closes a reopened store while its rebuild streams a
// run: Close stops the pass and returns, the run it stopped in gets no
// filter, and the store reopens with every filter rebuilt.
func TestCloseDuringRebuild(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	s := cycledStore(t, cfg)
	inPass, proceed := make(chan uint64), make(chan struct{})
	var cur uint64
	var once sync.Once
	cfg.holdRebuild = func(id uint64) { cur = id }
	cfg.rebuildTamper = func(record.Record, bool) {
		once.Do(func() {
			inPass <- cur
			<-proceed
		})
	}
	s = reopenWith(t, s, cfg)
	var stopped uint64
	select {
	case stopped = <-inPass:
	case <-time.After(30 * time.Second):
		t.Fatal("the reopened store started no filter rebuild")
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	for deadline := time.Now().Add(30 * time.Second); !s.rebuildStop.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(proceed)
			t.Fatal("Close did not stop the filter rebuild")
		}
	}
	close(proceed)
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return during the filter rebuild")
	}
	if runFilterOf(s, stopped) != nil {
		t.Errorf("run %d got a filter from a stopped pass", stopped)
	}
	cfg.holdRebuild, cfg.rebuildTamper = nil, nil
	cfg.Platform, cfg.Counter = s.platform, s.counter
	s = mustOpenP2(t, cfg)
	defer s.Close()
	s.rebuildDone.Wait()
	checkEnclaveBytes(t, s)
	if res, err := Get(s, []byte(strings.Repeat("z", 8))); err != nil || res.Found {
		t.Fatalf("Get after reopen = %+v, %v", res, err)
	}
}

// TestRestoredRunsGetFilters: a follower bootstrapped from a checkpoint
// rebuilds, when it opens, the key filter of every run it restored, byte for
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
	f.rebuildDone.Wait()
	for _, r := range runs {
		if got, want := runFilterOf(f, r.ID), runFilterOf(s, r.ID); got == nil || !bytes.Equal(got, want) {
			t.Errorf("restored run %d: filter of %d bytes, the leader's is %d", r.ID, len(got), len(want))
		}
	}
}
