package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// exportBuf exports s into a fresh buffer.
func exportBuf(t *testing.T, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.ExportCheckpoint(&buf, 0, 1); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// restoreOpen restores ckpt into a fresh MemFS and opens the result as a
// P2 store sharing the leader's platform.
func restoreOpen(t *testing.T, ckpt []byte, platform *sgx.Platform) (*Store, vfs.FS) {
	t.Helper()
	fs := vfs.NewMem()
	ctr := sgx.NewMonotonicCounter()
	if err := RestoreCheckpoint(bytes.NewReader(ckpt), RestoreConfig{
		FS: fs, Platform: platform, Counter: ctr,
	}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	cfg := smallCfg(fs)
	cfg.Platform = platform
	cfg.Counter = ctr
	f, err := Open(cfg)
	if err != nil {
		t.Fatalf("open restored: %v", err)
	}
	return f, fs
}

// TestCheckpointRoundTrip bootstraps a follower from a checkpoint carrying
// both flushed runs and a live WAL tail, and verifies every key (current
// and historical versions) reads back identically and verified.
func TestCheckpointRoundTrip(t *testing.T) {
	s := mustOpenP2(t, smallCfg(vfs.NewMem()))
	defer s.Close()

	const n = 400
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if _, err := Put(s, k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites and deletes exercise version chains and tombstones.
	for i := 0; i < n; i += 3 {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if _, err := Put(s, k, []byte(fmt.Sprintf("val2-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if _, err := Delete(s, []byte(fmt.Sprintf("key-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}

	f, _ := restoreOpen(t, exportBuf(t, s), s.platform)
	defer f.Close()

	if got, want := f.engine.AppliedTs(), s.engine.AppliedTs(); got != want {
		t.Fatalf("follower frontier %d, leader %d", got, want)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		lr, err := Get(s, k)
		if err != nil {
			t.Fatalf("leader get %s: %v", k, err)
		}
		fr, err := Get(f, k)
		if err != nil {
			t.Fatalf("follower get %s: %v", k, err)
		}
		if lr.Found != fr.Found || !bytes.Equal(lr.Value, fr.Value) || lr.Ts != fr.Ts {
			t.Fatalf("divergence at %s: leader %+v follower %+v", k, lr, fr)
		}
	}
	// Scans too.
	ls, err := Scan(s, []byte("key-"), []byte("key-99999"))
	if err != nil {
		t.Fatal(err)
	}
	fscan, err := Scan(f, []byte("key-"), []byte("key-99999"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ls) != len(fscan) {
		t.Fatalf("scan length %d vs %d", len(ls), len(fscan))
	}
	for i := range ls {
		if !bytes.Equal(ls[i].Key, fscan[i].Key) || !bytes.Equal(ls[i].Value, fscan[i].Value) || ls[i].Ts != fscan[i].Ts {
			t.Fatalf("scan divergence at %d", i)
		}
	}
}

// TestCheckpointEmptyStore bootstraps from a store with no writes at all.
func TestCheckpointEmptyStore(t *testing.T) {
	s := mustOpenP2(t, smallCfg(vfs.NewMem()))
	defer s.Close()
	f, _ := restoreOpen(t, exportBuf(t, s), s.platform)
	defer f.Close()
	r, err := Get(f, []byte("missing"))
	if err != nil || r.Found {
		t.Fatalf("expected clean miss, got %+v err %v", r, err)
	}
}

// TestCheckpointTamperDetected flips one byte at various offsets of the
// stream and requires every corruption to be rejected.
func TestCheckpointTamperDetected(t *testing.T) {
	s := mustOpenP2(t, smallCfg(vfs.NewMem()))
	defer s.Close()
	for i := 0; i < 300; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt := exportBuf(t, s)

	// Header byte, attestation report byte, an early table byte, and a
	// late WAL byte.
	offsets := []int{16, len(ckpt) / 3, len(ckpt) / 2, len(ckpt) - 10}
	for _, off := range offsets {
		mut := append([]byte(nil), ckpt...)
		mut[off] ^= 0x40
		fs := vfs.NewMem()
		err := RestoreCheckpoint(bytes.NewReader(mut), RestoreConfig{
			FS: fs, Platform: s.platform, Counter: sgx.NewMonotonicCounter(),
		})
		if err == nil {
			t.Fatalf("tamper at offset %d accepted", off)
		}
		if !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("tamper at offset %d: error %v does not wrap ErrAuthFailed", off, err)
		}
		// A failed restore must not leave a directory that passes for
		// bootstrapped.
		if !NeedsBootstrap(fs) {
			t.Fatalf("tamper at offset %d left sealed state behind", off)
		}
	}
}

// TestCheckpointShardMismatchRejected: the attested shard identity in the
// header must match what the restore expects — a transport serving shard
// 0's checkpoint to a follower bootstrapping shard 1 (or a follower
// configured with the wrong partition count) is rejected, not installed.
func TestCheckpointShardMismatchRejected(t *testing.T) {
	s := mustOpenP2(t, smallCfg(vfs.NewMem()))
	defer s.Close()
	if _, err := Put(s, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.ExportCheckpoint(&buf, 0, 2); err != nil { // shard 0 of 2
		t.Fatalf("export: %v", err)
	}
	ckpt := buf.Bytes()

	for _, tc := range []struct {
		name          string
		shard, shards int
	}{
		{"wrong shard", 1, 2},
		{"wrong shard count", 0, 4},
		{"unsharded expectation", 0, 1},
	} {
		fs := vfs.NewMem()
		err := RestoreCheckpoint(bytes.NewReader(ckpt), RestoreConfig{
			FS: fs, Platform: s.platform, Counter: sgx.NewMonotonicCounter(),
			Shard: tc.shard, Shards: tc.shards,
		})
		if !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("%s: restore error %v, want auth failure", tc.name, err)
		}
		if !NeedsBootstrap(fs) {
			t.Fatalf("%s: rejected restore left sealed state", tc.name)
		}
	}

	// The matching identity still restores.
	if err := RestoreCheckpoint(bytes.NewReader(ckpt), RestoreConfig{
		FS: vfs.NewMem(), Platform: s.platform, Counter: sgx.NewMonotonicCounter(),
		Shard: 0, Shards: 2,
	}); err != nil {
		t.Fatalf("matching shard identity rejected: %v", err)
	}
}

// TestCheckpointWrongPlatformRejected: a follower whose platform does not
// share the leader's root of trust must reject the header outright.
func TestCheckpointWrongPlatformRejected(t *testing.T) {
	s := mustOpenP2(t, smallCfg(vfs.NewMem()))
	defer s.Close()
	if _, err := Put(s, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	other, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	rerr := RestoreCheckpoint(bytes.NewReader(exportBuf(t, s)), RestoreConfig{
		FS: vfs.NewMem(), Platform: other, Counter: sgx.NewMonotonicCounter(),
	})
	if !errors.Is(rerr, ErrAuthFailed) {
		t.Fatalf("foreign platform restore: got %v", rerr)
	}
}

// TestCheckpointSharedSecretPlatforms exercises the cross-process shape:
// leader and follower construct their platforms independently from the
// same secret.
func TestCheckpointSharedSecretPlatforms(t *testing.T) {
	leaderPlat := sgx.NewPlatformFromSecret([]byte("repl-secret"))
	cfg := smallCfg(vfs.NewMem())
	cfg.Platform = leaderPlat
	s := mustOpenP2(t, cfg)
	defer s.Close()
	if _, err := Put(s, []byte("alpha"), []byte("beta")); err != nil {
		t.Fatal(err)
	}
	followerPlat := sgx.NewPlatformFromSecret([]byte("repl-secret"))
	f, _ := restoreOpen(t, exportBuf(t, s), followerPlat)
	defer f.Close()
	r, err := Get(f, []byte("alpha"))
	if err != nil || !r.Found || string(r.Value) != "beta" {
		t.Fatalf("follower read: %+v err %v", r, err)
	}
}
