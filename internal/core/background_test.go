package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
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

// runIDSet extracts the set of run IDs currently in the version.
func runIDSet(s *Store) map[uint64]bool {
	out := map[uint64]bool{}
	for _, r := range s.Engine().Runs() {
		out[r.ID] = true
	}
	return out
}

// subsetOf reports whether every element of got is in want.
func subsetOf(got, want map[uint64]bool) bool {
	for id := range got {
		if !want[id] {
			return false
		}
	}
	return true
}

// TestCrashMidBackgroundCompaction kills the disk (vfs fault injection) at
// varying points inside a compaction — during output table writes, during
// the manifest swap — then "crashes" (abandons the store) and recovers on
// the surviving bytes. Recovery must observe either the old input runs or
// the new output run, never a mixture; every committed record must read
// back verified; and tamper detection must still fire on whichever run set
// survived.
func TestCrashMidBackgroundCompaction(t *testing.T) {
	for _, budget := range []int{1, 2, 4, 8, 16, 32, 1 << 30} {
		budget := budget
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			mem := vfs.NewMem()
			ffs := vfs.NewFault(mem)
			cfg := smallCfg(ffs)
			cfg.CounterInterval = 8
			cfg.KeepVersions = 1
			s := mustOpenP2(t, cfg)

			// Build a store with runs on two levels, settled.
			written := map[string]string{}
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("key%04d", i)
				val := fmt.Sprintf("val%04d", i)
				if _, err := Put(s, []byte(key), []byte(val)); err != nil {
					t.Fatal(err)
				}
				written[key] = val
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			oldRuns := runIDSet(s)
			if len(oldRuns) == 0 {
				t.Fatal("setup produced no runs")
			}

			// Die somewhere inside the compaction.
			ffs.Arm(budget)
			compactErr := s.Compact(1)
			ffs.Disarm()
			newRuns := runIDSet(s)

			// "Crash": abandon without Close, reopen the raw bytes.
			cfg2 := smallCfg(mem)
			cfg2.CounterInterval = 8
			cfg2.KeepVersions = 1
			cfg2.Platform = s.platform
			cfg2.Counter = s.counter
			s2, err := Open(cfg2)
			if err != nil {
				// Refusing recovery outright is acceptable (fail closed) —
				// but only when the compaction actually failed mid-way.
				if compactErr == nil {
					t.Fatalf("clean compaction but recovery refused: %v", err)
				}
				t.Logf("recovery refused (fail-closed) after %v", err)
				return
			}
			defer s2.Close()

			// Old runs or new run — never both.
			recovered := runIDSet(s2)
			if !subsetOf(recovered, oldRuns) && !subsetOf(recovered, newRuns) {
				t.Fatalf("recovered a mixed version: %v (old %v, new %v)",
					recovered, oldRuns, newRuns)
			}

			// Every committed record must verify on the surviving set.
			for key, val := range written {
				res, err := Get(s2, []byte(key))
				if err != nil {
					t.Fatalf("verified read after crash: %v", err)
				}
				if !res.Found || string(res.Value) != val {
					t.Fatalf("key %s: found=%v val=%q want %q", key, res.Found, res.Value, val)
				}
			}

			// Tamper detection must still fire on the surviving tables.
			names, _ := mem.List("0")
			if len(names) == 0 {
				t.Fatal("no surviving tables to tamper with")
			}
			for _, name := range names {
				f, err := mem.Open(name)
				if err != nil {
					continue
				}
				for off := int64(0); off < f.Size(); off += 64 {
					mem.Corrupt(name, off)
				}
			}
			detected := false
			for key := range written {
				res, err := Get(s2, []byte(key))
				if err != nil {
					detected = true
					break
				}
				if res.Found && res.Value != nil && written[key] != string(res.Value) {
					t.Fatalf("tampered value served without error for %s", key)
				}
			}
			if !detected {
				t.Fatal("no read error after corrupting every surviving table")
			}
		})
	}
}

// manifestLastTs matches the timestamp floor in the engine's JSON manifest.
var manifestLastTs = regexp.MustCompile(`"lastTs":\d+`)

// zeroManifestTs rewrites the manifest's timestamp floor to zero, the way a
// hostile host could: MANIFEST is plain untrusted JSON, so a recovered
// store's timestamp counter must not depend on it.
func zeroManifestTs(t *testing.T, mem *vfs.MemFS) {
	t.Helper()
	f, err := mem.Open("MANIFEST")
	if err != nil {
		return // crashed before the first manifest
	}
	data := manifestLastTs.ReplaceAll(f.Bytes(), []byte(`"lastTs":0`))
	if f, err = mem.Create("MANIFEST"); err == nil {
		_, err = f.Append(data)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashInsideBulkLoadKeepsTimestampFloor kills the disk at every
// operation of a bulk load, zeroes the manifest's timestamp floor, and
// recovers. Whenever recovery succeeds with the loaded run present — in
// particular through the transition seal, when only the post-install seal
// write was lost — the trusted state alone must put the timestamp counter
// above every loaded record: a fresh Put may never reuse a loaded timestamp.
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
		zeroManifestTs(t, crash)
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
	f, err := disk.Open(trustedStateName)
	if err != nil {
		t.Fatal(err)
	}
	sealed := make([]byte, f.Size())
	if _, err := f.ReadAt(sealed, 0); err != nil {
		t.Fatal(err)
	}
	blob, err := sgx.Unseal(s.sealKey, sealed)
	if err != nil {
		t.Fatal(err)
	}
	var st trustedState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAbortedJobRetractsItsTransitionSeal is the authentication layer's side
// of the engine's abort matrix: a flush and a compaction each fail at an
// output table's write, at Verify (a tampered input run) and at the manifest
// write — the one point at which a transition seal is already staged and on
// disk. Whatever the point, the next sealed blob carries no pending state,
// and every read still verifies.
func TestAbortedJobRetractsItsTransitionSeal(t *testing.T) {
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
		staged bool // the job fails with its transition seal written
		inject func(t *testing.T, mem *vfs.MemFS, ffs *vfs.FaultFS) (heal func())
	}{
		{"table-write", false, func(_ *testing.T, _ *vfs.MemFS, ffs *vfs.FaultFS) func() {
			ffs.ArmFilter(vfs.OpCreate, "*.sst")
			ffs.Arm(0)
			return ffs.Disarm
		}},
		{"verify", false, func(t *testing.T, mem *vfs.MemFS, _ *vfs.FaultFS) func() {
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
		{"manifest-write", true, func(_ *testing.T, _ *vfs.MemFS, ffs *vfs.FaultFS) func() {
			ffs.ArmFilter(vfs.OpAll, "MANIFEST*")
			ffs.Arm(0)
			return ffs.Disarm
		}},
	}
	for _, kind := range kinds {
		for _, fault := range faults {
			kind, fault := kind, fault
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
				err := kind.run(s)
				if err == nil {
					t.Fatal("the job succeeded through its injected fault")
				}
				if fault.name == "verify" && !errors.Is(err, ErrCompactionInput) {
					t.Fatalf("job over a tampered run = %v, want ErrCompactionInput", err)
				}
				if got := sealedState(t, s, mem).Pending != nil; got != fault.staged {
					t.Fatalf("transition seal on disk at the failure: %v, want %v", got, fault.staged)
				}
				heal()

				s.SealState()
				if st := sealedState(t, s, mem); st.Pending != nil {
					t.Fatalf("the seal after an aborted job still carries its pending state: %+v", st.Pending)
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
