package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// A key's Merkle leaf is its version-chain head, and the oldest link is the
// oldest record's digest, so a key of one version is its record digest. The
// tests below hold that form to what a lying host can do with it: claim that
// a key has one version when it has two, and drop a version from a span.

// twoVersionRun writes key000…key019 once and key005 and key019 a second
// time, flushes them into one run, and returns the store, the run's ID and
// its trusted digest, and the two timestamps of key005.
func twoVersionRun(t *testing.T) (s *Store, id uint64, d runDigest, ts1, ts2 uint64) {
	t.Helper()
	cfg := smallCfg(vfs.NewMem())
	cfg.MemtableSize = 1 << 20
	s = mustOpenP2(t, cfg)
	for i := 0; i < 20; i++ {
		ts, err := Put(s, []byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v1-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			ts1 = ts
		}
	}
	for _, i := range []int{5, 19} {
		ts, err := Put(s, []byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("v2-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			ts2 = ts
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runs := s.Engine().Runs()
	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1", len(runs))
	}
	id = runs[0].ID
	return s, id, s.snapshotDigests()[id], ts1, ts2
}

// asOnlyVersion re-encodes rec's proof as the proof of a key's only version:
// no newer headers and a zero inner.
func asOnlyVersion(t *testing.T, rec record.Record) record.Record {
	t.Helper()
	p, err := DecodeProof(rec.Proof)
	if err != nil {
		t.Fatal(err)
	}
	p.Newer, p.Inner = nil, hashutil.Zero
	rec.Proof = p.Encode()
	return rec
}

// TestAttackOnlyVersionClaim: a host serves one version of a two-version key
// with the proof of a key's only version (n = 0, zero inner). Whether it
// serves the newest version, to hide the older one from a historical GetAt,
// or the older one, to hide the newer from a Get, the leaf the enclave
// rebuilds is the bare record digest, which is not the key's leaf: every
// such read fails with an ErrAuthFailed subclass, under a cold node cache
// and a warm one.
func TestAttackOnlyVersionClaim(t *testing.T) {
	s, id, d, ts1, ts2 := twoVersionRun(t)
	defer s.Close()
	key := []byte("key005")
	newest, err := lookupRun(s, id, key, record.MaxTs)
	if err != nil || !newest.Found || newest.Rec.Ts != ts2 {
		t.Fatalf("lookup of the newest version: %+v, %v", newest, err)
	}
	older, err := lookupRun(s, id, key, ts1)
	if err != nil || !older.Found || older.Rec.Ts != ts1 {
		t.Fatalf("lookup of the older version: %+v, %v", older, err)
	}
	warm := &verifier{nodes: merkle.NewNodeCache()}
	for _, v := range []*verifier{noCache, warm} {
		// The honest proofs: the newest version verifies, and the older
		// one is stale for a Get and no witness of absence at ts1.
		if err := v.verifyMembership(key, record.MaxTs, newest.Rec, d); err != nil {
			t.Fatalf("honest Get rejected: %v", err)
		}
		if err := v.verifyMembership(key, ts1, older.Rec, d); err != nil {
			t.Fatalf("honest GetAt rejected: %v", err)
		}
		if err := v.verifyMembership(key, record.MaxTs, older.Rec, d); !errors.Is(err, ErrStale) {
			t.Fatalf("older version served to a Get: %v, want ErrStale", err)
		}
		if err := v.verifyNonMembership(key, ts1, lsm.RunLookup{RunID: id, Pred: &newest.Rec}, d); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("newest version as a witness of absence at ts1: %v, want ErrIncomplete", err)
		}

		onlyNewest, onlyOlder := asOnlyVersion(t, newest.Rec), asOnlyVersion(t, older.Rec)
		for _, c := range []struct {
			name string
			err  error
		}{
			{"Get of the newest version claimed as the only one",
				v.verifyMembership(key, record.MaxTs, onlyNewest, d)},
			{"GetAt below it: the newest version claimed as the only one, so the key is absent",
				v.verifyNonMembership(key, ts1, lsm.RunLookup{RunID: id, Pred: &onlyNewest}, d)},
			{"Get of the older version claimed as the only one",
				v.verifyMembership(key, record.MaxTs, onlyOlder, d)},
			{"GetAt at the newer version's ts of the older version claimed as the only one",
				v.verifyMembership(key, ts2, onlyOlder, d)},
		} {
			if !errors.Is(c.err, ErrAuthFailed) {
				t.Errorf("%s: %v, want an ErrAuthFailed subclass", c.name, c.err)
			}
		}
	}
}

// TestAttackScanDropsAVersion: a host drops one version of a two-version
// key from a scan span — the older one, so the newer reads as the key's
// only version, or the newer one, to serve the older value — in the middle
// of the span and at its last key. The key's leaf then folds to a bare
// record digest, and the span fails with an ErrAuthFailed subclass.
func TestAttackScanDropsAVersion(t *testing.T) {
	s, id, d, ts1, ts2 := twoVersionRun(t)
	defer s.Close()
	start, end := []byte("key003"), []byte("key019")
	rs, err := scanRun(s, id, start, end)
	if err != nil {
		t.Fatal(err)
	}
	warm := &verifier{nodes: merkle.NewNodeCache()}
	if err := scanVerdict(t, warm, start, end, rs, d); err != nil {
		t.Fatalf("honest span rejected: %v", err)
	}
	for _, drop := range []struct {
		key string
		ts  uint64 // 0: the key's older version
	}{{"key005", ts1}, {"key005", ts2}, {"key019", 0}} {
		tampered := rs
		tampered.Records = nil
		dropped := false
		for i, r := range rs.Records {
			older := i > 0 && bytes.Equal(rs.Records[i-1].Key, r.Key)
			if string(r.Key) == drop.key && (r.Ts == drop.ts || drop.ts == 0 && older) {
				dropped = true
				continue
			}
			tampered.Records = append(tampered.Records, r)
		}
		if !dropped {
			t.Fatalf("%s at ts %d is not in the span", drop.key, drop.ts)
		}
		if err := scanVerdict(t, warm, start, end, tampered, d); !errors.Is(err, ErrAuthFailed) {
			t.Errorf("span without %s at ts %d: %v, want an ErrAuthFailed subclass", drop.key, drop.ts, err)
		}
	}
}

// TestAttackTamperedOnlyVersionInCompaction: one byte of a single-version
// record's value flipped in a compaction's input run. The record's digest is
// its key's leaf, so the rebuilt root misses the trusted one and Verify
// aborts the job with ErrCompactionInput.
func TestAttackTamperedOnlyVersionInCompaction(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.DisableCompaction = true
	s := mustOpenP2(t, cfg)
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("value-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	target := []byte("value-00123")
	tampered := false
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if at := bytes.Index(f.Bytes(), target); at >= 0 && bytes.HasSuffix([]byte(name), []byte(".sst")) {
			if err := fs.Corrupt(name, int64(at+len(target)-1)); err != nil {
				t.Fatal(err)
			}
			tampered = true
		}
	}
	if !tampered {
		t.Fatal("no table holds the target value")
	}
	if err := s.Compact(s.Engine().Runs()[0].Level); !errors.Is(err, ErrCompactionInput) {
		t.Fatalf("compaction over a tampered single-version record: %v, want ErrCompactionInput", err)
	}
}

// TestParentFormatStateIsRefused: a sealed state and a checkpoint header
// written before leaves were chain heads carry no format. Their roots hash
// every leaf under a wrapper, so no run of theirs verifies here: the store
// refuses them at Open and at restore as a format it does not read, not as
// an attack.
func TestParentFormatStateIsRefused(t *testing.T) {
	// dropFormat removes the format field from a JSON object, as the
	// earlier build wrote it.
	dropFormat := func(blob []byte) []byte {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m["format"]; !ok {
			t.Fatal("no format field to drop")
		}
		delete(m, "format")
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	t.Run("seal", func(t *testing.T) {
		fs := vfs.NewMem()
		s := mustOpenP2(t, forgeCfg(fs))
		putFlush(t, s, "v")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		sealed, err := vfs.ReadFile(fs, trustedStateName)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := sgx.Unseal(s.sealKey, sealed)
		if err != nil {
			t.Fatal(err)
		}
		if sealed, err = sgx.Seal(s.sealKey, dropFormat(blob)); err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, trustedStateName, sealed); err != nil {
			t.Fatal(err)
		}
		if _, err := reopen(s, fs); !errors.Is(err, ErrOldStateFormat) || errors.Is(err, ErrAuthFailed) {
			t.Fatalf("a seal without a format: %v, want ErrOldStateFormat alone", err)
		}
	})

	t.Run("checkpoint", func(t *testing.T) {
		s := mustOpenP2(t, smallCfg(vfs.NewMem()))
		defer s.Close()
		for i := 0; i < 100; i++ {
			if _, err := Put(s, []byte(fmt.Sprintf("key-%05d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		ckpt := exportBuf(t, s)
		// magic ‖ header length ‖ header ‖ report ‖ files: re-attest the
		// header without its format, as the earlier build's leader did.
		hdrEnd := len(checkpointMagic) + 4 + int(binary.BigEndian.Uint32(ckpt[len(checkpointMagic):]))
		hdr := dropFormat(ckpt[len(checkpointMagic)+4 : hdrEnd])
		var old bytes.Buffer
		old.WriteString(checkpointMagic)
		old.Write(binary.BigEndian.AppendUint32(nil, uint32(len(hdr))))
		old.Write(hdr)
		if err := sgx.WriteReport(&old, s.AttestPayload(hdr)); err != nil {
			t.Fatal(err)
		}
		old.Write(ckpt[hdrEnd+128:]) // past the report's 128-byte wire form
		err := RestoreCheckpoint(&old, RestoreConfig{FS: vfs.NewMem(), Platform: s.platform, Counter: sgx.NewMonotonicCounter()})
		if !errors.Is(err, ErrOldStateFormat) || errors.Is(err, ErrAuthFailed) {
			t.Fatalf("a checkpoint without a format: %v, want ErrOldStateFormat alone", err)
		}
	})
}
