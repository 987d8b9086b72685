package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// TestConcurrentWritesDuringCompaction is the write-path stress test for
// background maintenance: concurrent writers commit while flushes and
// level compactions are forced non-stop, with every writer verifying its
// own writes through the authenticated read path as it goes. At the end
// the committed timestamps must be exactly 1..N — dense and monotonic, no
// operation lost or duplicated — and every key must read back verified.
func TestConcurrentWritesDuringCompaction(t *testing.T) {
	cfg := smallCfg(nil)
	cfg.CounterInterval = 64
	cfg.KeepVersions = 1
	s := mustOpenP2(t, cfg)
	defer s.Close()

	const writers = 4
	const perWriter = 250

	// Hammer maintenance for the duration of the workload.
	stop := make(chan struct{})
	var maintWG sync.WaitGroup
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Flush(); err != nil {
				t.Errorf("forced flush: %v", err)
				return
			}
			if err := s.Compact(1); err != nil {
				t.Errorf("forced compaction: %v", err)
				return
			}
		}
	}()

	type ack struct {
		key, val string
		ts       uint64
	}
	acks := make([][]ack, writers)
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%02d-%05d", w, i)
				val := fmt.Sprintf("v%02d-%05d", w, i)
				ts, err := Put(s, []byte(key), []byte(val))
				if err != nil {
					errCh <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				acks[w] = append(acks[w], ack{key, val, ts})
				// Verified read-your-write while compactions churn.
				res, err := Get(s, []byte(key))
				if err != nil {
					errCh <- fmt.Errorf("verified get %s mid-compaction: %w", key, err)
					return
				}
				if !res.Found || string(res.Value) != val {
					errCh <- fmt.Errorf("get %s: found=%v val=%q want %q", key, res.Found, res.Value, val)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	maintWG.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Timestamp density: every op got exactly one ts from 1..N.
	var all []uint64
	for _, a := range acks {
		for _, x := range a {
			all = append(all, x.ts)
		}
	}
	total := writers * perWriter
	if len(all) != total {
		t.Fatalf("acked %d ops, want %d", len(all), total)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, ts := range all {
		if ts != uint64(i+1) {
			t.Fatalf("timestamp %d at position %d: ops lost or duplicated", ts, i)
		}
	}

	// Final verified read-back of everything.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		for _, x := range a {
			res, err := Get(s, []byte(x.key))
			if err != nil || !res.Found || string(res.Value) != x.val {
				t.Fatalf("final get %s: found=%v err=%v val=%q want %q",
					x.key, res.Found, err, res.Value, x.val)
			}
		}
	}
	if st := s.Engine().Stats(); st.Compactions == 0 {
		t.Fatal("stress test never compacted")
	}
}

// TestCrashInsideBulkLoadKeepsTimestampFloor kills the disk at every
// operation of a bulk load and recovers. Whenever recovery succeeds with the
// loaded run present, the sealed state — which carries the version and its
// timestamp floor — must put the timestamp counter above every loaded
// record: a fresh Put may never reuse a loaded timestamp.
func TestCrashInsideBulkLoadKeepsTimestampFloor(t *testing.T) {
	const n = 200
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{
			Key:   []byte(fmt.Sprintf("key%05d", i)),
			Ts:    uint64(i + 1),
			Kind:  record.KindSet,
			Value: []byte(fmt.Sprintf("loaded%05d", i)),
		}
	}
	load := func(budget int) (*vfs.MemFS, *Store, error) {
		mem := vfs.NewMem()
		ffs := vfs.NewFault(mem)
		s := mustOpenP2(t, smallCfg(ffs))
		ffs.ArmFilter(vfs.OpAll, "")
		if budget >= 0 {
			ffs.Arm(budget)
		}
		err := s.BulkLoad(recs)
		t.Cleanup(func() { ffs.Disarm(); s.Close() })
		return mem, s, err
	}
	_, s, err := load(-1)
	if err != nil {
		t.Fatal(err)
	}
	total := int(s.fs.(*vfs.FaultFS).MatchingOps())

	survived := 0
	for budget := 0; budget <= total; budget++ {
		mem, s, loadErr := load(budget)
		crash := mem.Clone() // "crash": the bytes as the dead disk left them
		cfg := smallCfg(crash)
		cfg.Platform, cfg.Counter = s.platform, s.counter
		s2, err := Open(cfg)
		if err != nil {
			if loadErr == nil {
				t.Fatalf("budget %d: load returned nil but recovery refused: %v", budget, err)
			}
			continue // fail closed after a failed load is acceptable
		}
		if len(s2.Engine().Runs()) == 0 {
			s2.Close()
			continue // recovered the empty pre-load store
		}
		survived++
		ts, err := Put(s2, []byte("key00007"), []byte("fresh"))
		if err != nil {
			t.Fatalf("budget %d: put after recovery: %v", budget, err)
		}
		if ts <= n {
			t.Fatalf("budget %d: fresh Put got ts %d, reusing a loaded timestamp (max %d)", budget, ts, n)
		}
		if res, err := Get(s2, []byte("key00007")); err != nil || string(res.Value) != "fresh" {
			t.Fatalf("budget %d: Get after the fresh Put = %q (ts %d), err %v", budget, res.Value, res.Ts, err)
		}
		s2.Close()
	}
	if survived == 0 {
		t.Fatal("no fault budget recovered with the loaded run present")
	}
	t.Logf("%d of %d fault budgets recovered with the run present", survived, total+1)
}

// sealedState unseals the trusted-state blob s last wrote to disk.
func sealedState(t *testing.T, s *Store, disk vfs.FS) trustedState {
	t.Helper()
	return unsealState(t, s.sealKey, disk)
}

// unsealState unseals the trusted-state blob on disk under key.
func unsealState(t *testing.T, key [32]byte, disk vfs.FS) trustedState {
	t.Helper()
	sealed, err := vfs.ReadFile(disk, trustedStateName)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sgx.Unseal(key, sealed)
	if err != nil {
		t.Fatal(err)
	}
	var st trustedState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// sealedRuns returns the IDs of the runs the version sealed on disk lists,
// in read order.
func sealedRuns(t *testing.T, st trustedState) []uint64 {
	t.Helper()
	var v struct {
		Levels [][]struct {
			ID uint64 `json:"id"`
		} `json:"levels"`
	}
	if err := json.Unmarshal(st.Version, &v); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, runs := range v.Levels {
		for _, r := range runs {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

// TestAbortedJobLeavesTheSeal is the authentication layer's side of the
// engine's abort matrix: a flush and a compaction each fail at an output
// table's write, at Verify (a tampered input run) and at the seal of the
// version that lists the output — the install's one commit point. Whatever
// the point, the sealed state is the store's own, the forest and the runs
// from before the job, and every read still verifies.
func TestAbortedJobLeavesTheSeal(t *testing.T) {
	kinds := []struct {
		name string
		mem  int // keys left in the memtable by the setup
		run  func(s *Store) error
	}{
		{"flush", 100, (*Store).Flush},
		{"compact", 0, func(s *Store) error { return s.Compact(1) }},
	}
	faults := []struct {
		name   string
		inject func(t *testing.T, mem *vfs.MemFS, ffs *vfs.FaultFS) (heal func())
	}{
		{"table-write", func(_ *testing.T, _ *vfs.MemFS, ffs *vfs.FaultFS) func() {
			ffs.ArmFilter(vfs.OpCreate, "*.sst")
			ffs.Arm(0)
			return ffs.Disarm
		}},
		{"verify", func(t *testing.T, mem *vfs.MemFS, _ *vfs.FaultFS) func() {
			names, _ := mem.List("")
			for _, name := range names {
				f, err := mem.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				if at := bytes.Index(f.Bytes(), []byte("val00123")); at >= 0 {
					flip := func() {
						if err := mem.Corrupt(name, int64(at)+5); err != nil {
							t.Fatal(err)
						}
					}
					flip()
					return flip
				}
			}
			t.Fatal("value to tamper with not found in any table")
			return nil
		}},
		{"seal-write", func(_ *testing.T, _ *vfs.MemFS, ffs *vfs.FaultFS) func() {
			ffs.ArmFilter(vfs.OpAll, trustedStateName+"*")
			ffs.Arm(0)
			return ffs.Disarm
		}},
	}
	for _, kind := range kinds {
		for _, fault := range faults {
			t.Run(kind.name+"/"+fault.name, func(t *testing.T) {
				mem := vfs.NewMem()
				ffs := vfs.NewFault(mem)
				cfg := smallCfg(ffs)
				cfg.MemtableSize = 1 << 20 // nothing freezes or compacts on its own
				cfg.LevelBase = 1 << 30
				s := mustOpenP2(t, cfg)
				defer s.Close()
				const n = 300
				for i := 0; i < n; i++ {
					if i == n-kind.mem {
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("val%05d", i))); err != nil {
						t.Fatal(err)
					}
				}
				if kind.mem == 0 {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}

				heal := fault.inject(t, mem, ffs)
				run := kind.run
				if fault.name == "verify" && kind.mem > 0 {
					// A flush reads no run: the first job that reads the
					// tampered one is L1's compaction, right after it.
					run = func(s *Store) error {
						if err := s.Flush(); err != nil {
							return err
						}
						return s.Compact(1)
					}
				}
				runs := s.Engine().Runs()
				err := run(s)
				if err == nil {
					t.Fatal("the job succeeded through its injected fault")
				}
				if fault.name == "verify" && !errors.Is(err, ErrCompactionInput) {
					t.Fatalf("job over a tampered run = %v, want ErrCompactionInput", err)
				}
				heal()

				st := sealedState(t, s, mem)
				if !maps.Equal(st.Digests, s.snapshotDigests()) {
					t.Fatalf("the seal after the aborted job holds the forest %v, the store %v", st.Digests, s.snapshotDigests())
				}
				var ids []uint64
				for _, r := range s.Engine().Runs() {
					ids = append(ids, r.ID)
				}
				if got := sealedRuns(t, st); !slices.Equal(got, ids) {
					t.Fatalf("the sealed version lists runs %v, the engine %v", got, ids)
				}
				if fault.name != "verify" && !slices.Equal(s.Engine().Runs(), runs) {
					t.Fatalf("the aborted job changed the runs: %v → %v", runs, s.Engine().Runs())
				}
				for i := 0; i < n; i++ {
					key, val := fmt.Sprintf("key%05d", i), fmt.Sprintf("val%05d", i)
					if res, err := Get(s, []byte(key)); err != nil || !res.Found || string(res.Value) != val {
						t.Fatalf("Get(%s) after the aborted job = %q found=%v err=%v", key, res.Value, res.Found, err)
					}
				}
			})
		}
	}
}

// sealRefuser refuses to create the seal's temporary file while refuse is
// set, and does every other operation.
type sealRefuser struct {
	vfs.FS
	refuse atomic.Bool
}

var errSealRefused = errors.New("seal refused")

func (f *sealRefuser) Create(name string) (vfs.File, error) {
	if f.refuse.Load() && name == trustedStateName+".tmp" {
		return nil, errSealRefused
	}
	return f.FS.Create(name)
}

// TestFailedSealFailsItsInstall: a flush whose seal cannot be written
// reports the failure, and the store it leaves, reopened as after a crash,
// reads every acknowledged write. The seal is the install's one commit
// point: a failed one leaves the state from before the flush, whose logs
// are still there.
func TestFailedSealFailsItsInstall(t *testing.T) {
	mem := vfs.NewMem()
	fs := &sealRefuser{FS: mem}
	cfg := smallCfg(fs)
	cfg.MemtableSize, cfg.CounterInterval = 1<<20, -1 // only installs seal
	s := mustOpenP2(t, cfg)
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := Put(s, key(i), []byte(fmt.Sprintf("val%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.refuse.Store(true)
	err := s.Flush()
	fs.refuse.Store(false)
	if !errors.Is(err, errSealRefused) {
		t.Fatalf("Flush with its seal refused = %v, want the seal's error", err)
	}
	s.Engine().Close() // a crash: no final seal
	s.retireRuns()

	cfg.FS, cfg.Platform, cfg.Counter = mem, s.platform, s.counter
	s = mustOpenP2(t, cfg)
	defer s.Close()
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("val%05d", i)
		if res, err := Get(s, key(i)); err != nil || !res.Found || string(res.Value) != want {
			t.Fatalf("Get(%s) after the reopen = %q found=%v err=%v", key(i), res.Value, res.Found, err)
		}
	}
}
