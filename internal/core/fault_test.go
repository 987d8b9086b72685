package core

import (
	"errors"
	"fmt"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// TestIOFaultDuringWritesSurfacesCleanly arms the fault injector at
// decreasing budgets so the failure lands in different phases (WAL append,
// flush, compaction, manifest write) and checks that the store returns an
// error instead of silently losing or corrupting data.
func TestIOFaultDuringWritesSurfacesCleanly(t *testing.T) {
	for _, budget := range []int{3, 10, 40, 120, 400} {
		budget := budget
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			mem := vfs.NewMem()
			ffs := vfs.NewFault(mem)
			cfg := smallCfg(ffs)
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ffs.Arm(budget)
			var failed bool
			for i := 0; i < 2000 && !failed; i++ {
				if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte("v")); err != nil {
					if !errors.Is(err, vfs.ErrInjected) {
						t.Fatalf("op %d: unexpected error class: %v", i, err)
					}
					failed = true
				}
			}
			if !failed {
				t.Fatalf("fault never fired (budget %d)", budget)
			}
			if !ffs.Tripped() {
				t.Fatal("injector claims untripped")
			}
		})
	}
}

// TestCloseReportsAFailedSeal: when the final seal's rename of TRUSTED.bin
// fails, Close still shuts the store down but returns the error, and the
// reopened store replays the write the failed seal would have covered.
func TestCloseReportsAFailedSeal(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	s := mustOpenP2(t, smallCfg(ffs))
	if _, err := Put(s, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ffs.ArmFilter(vfs.OpRename, trustedStateName+"*")
	ffs.Arm(0)
	if err := s.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("Close with a failed final seal = %v, want the injected error", err)
	}
	if !ffs.Tripped() {
		t.Fatal("the seal's rename was never attempted")
	}
	cfg := smallCfg(mem)
	cfg.Platform, cfg.Counter = s.platform, s.counter
	s2 := mustOpenP2(t, cfg)
	defer s2.Close()
	if got := s2.ReplayedPastSeal(); got != 1 {
		t.Fatalf("reopen replayed %d records past the seal, want the 1 the failed seal left", got)
	}
	if res, err := Get(s2, []byte("k")); err != nil || string(res.Value) != "v" {
		t.Fatalf("Get(k) after reopen = %+v, %v", res, err)
	}
}

// TestRecoveryAfterMidFlushCrash kills the disk mid-flush, then restarts
// against the surviving bytes: the store must either recover to a
// verified prefix of the history or refuse with a clear error — never
// serve unverified data.
func TestRecoveryAfterMidFlushCrash(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	cfg := smallCfg(ffs)
	cfg.CounterInterval = 8
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("key%03d", i)
		if _, err := Put(s, []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		written[key] = true
	}
	// Kill the disk, then drive writes until the flush path trips.
	ffs.Arm(25)
	for i := 60; i < 3000 && !ffs.Tripped(); i++ {
		Put(s, []byte(fmt.Sprintf("key%03d", i%200)), []byte("v2"))
	}
	if !ffs.Tripped() {
		t.Fatal("flush fault never fired")
	}
	// "Crash": abandon the store without Close, heal the disk, reopen.
	ffs.Disarm()
	cfg2 := smallCfg(mem) // reopen on the raw surviving bytes
	cfg2.Platform = s.platform
	cfg2.Counter = s.counter
	s2, err := Open(cfg2)
	if err != nil {
		// Refusing recovery outright is acceptable (fail closed).
		t.Logf("recovery refused (fail-closed): %v", err)
		return
	}
	defer s2.Close()
	// Whatever recovered must verify.
	for key := range written {
		if _, err := Get(s2, []byte(key)); err != nil {
			t.Fatalf("verified read after crash recovery failed: %v", err)
		}
	}
}

// TestAttackScanChainVersionOmission targets the version hash chain: with
// full history retained, a range result that silently drops ONE version of
// a key (returning the others) must fail verification — the chain hash
// cannot be reconstructed without every version.
func TestAttackScanChainVersionOmission(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil)) // KeepVersions: 0 (full history)
	defer s.Close()
	for i := 0; i < 50; i++ {
		Put(s, []byte(fmt.Sprintf("key%03d", i)), []byte("v1"))
	}
	for i := 0; i < 50; i++ {
		Put(s, []byte(fmt.Sprintf("key%03d", i)), []byte("v2"))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Engine().Runs()[0].ID
	d := s.snapshotDigests()[id]
	rs, err := scanRun(s, id, []byte("key010"), []byte("key020"))
	if err != nil {
		t.Fatal(err)
	}
	warm := &verifier{nodes: merkle.NewNodeCache()}
	verify := func(rs lsm.RunScan) error {
		return scanVerdict(t, warm, []byte("key010"), []byte("key020"), rs, d)
	}
	if err := verify(rs); err != nil {
		t.Fatalf("honest multi-version scan rejected: %v", err)
	}
	// Count versions per key: we expect 2 per key.
	perKey := map[string]int{}
	for _, r := range rs.Records {
		perKey[string(r.Key)]++
	}
	for k, n := range perKey {
		if n != 2 {
			t.Fatalf("key %s has %d versions, want 2", k, n)
		}
	}
	// Drop the OLD version of one key (present a partial chain).
	var tampered = rs
	tampered.Records = nil
	dropped := false
	for _, r := range rs.Records {
		if string(r.Key) == "key015" && string(r.Value) == "v1" && !dropped {
			dropped = true
			continue
		}
		tampered.Records = append(tampered.Records, r)
	}
	if !dropped {
		t.Fatal("setup: old version not found")
	}
	if err := verify(tampered); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("partial version chain accepted: %v", err)
	}
	// Drop the NEW version instead (freshness-relevant omission).
	tampered.Records = nil
	dropped = false
	for _, r := range rs.Records {
		if string(r.Key) == "key015" && string(r.Value) == "v2" && !dropped {
			dropped = true
			continue
		}
		tampered.Records = append(tampered.Records, r)
	}
	if err := verify(tampered); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("scan omitting newest version accepted: %v", err)
	}
}

// TestProofSizeLogarithmic checks the paper's "small proofs" claim: the
// embedded proof grows O(log n) in the run's key count, not linearly.
func TestProofSizeLogarithmic(t *testing.T) {
	proofLen := func(n int) int {
		t.Helper()
		cfg := smallCfg(nil)
		cfg.TableFileSize = 64 << 10
		cfg.BlockSize = 4 << 10
		s := mustOpenP2(t, cfg)
		defer s.Close()
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Record{
				Key:   []byte(fmt.Sprintf("key%07d", i)),
				Ts:    uint64(i + 1),
				Kind:  record.KindSet,
				Value: []byte("v"),
			}
		}
		if err := s.BulkLoad(recs); err != nil {
			t.Fatal(err)
		}
		lk, err := lookupRun(s, s.Engine().Runs()[0].ID, recs[n/2].Key, record.MaxTs)
		if err != nil || !lk.Found {
			t.Fatalf("lookup: %v %v", lk.Found, err)
		}
		return len(lk.Rec.Proof)
	}
	small := proofLen(1 << 8)
	large := proofLen(1 << 13) // 32x more keys
	if large <= small {
		t.Fatalf("proof did not grow at all: %d -> %d", small, large)
	}
	// log2(32x) = 5 extra path nodes ≈ 165 bytes; anything close to
	// linear growth (32x bytes) is a failure.
	if large > small*3 {
		t.Fatalf("proof growth not logarithmic: %dB @ 256 keys vs %dB @ 8192 keys", small, large)
	}
}
