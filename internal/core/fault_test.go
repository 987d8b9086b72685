package core

import (
	"errors"
	"fmt"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
)

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
