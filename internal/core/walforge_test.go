package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// forgeCfg is smallCfg with a memtable no test here fills: every group stays
// in the active log unless a test flushes it.
func forgeCfg(fs vfs.FS) Config {
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.CounterInterval = -1
	return cfg
}

// reopen opens the store's directory again, as a restart on the same
// platform and counter would.
func reopen(s *Store, fs vfs.FS) (*Store, error) {
	cfg := forgeCfg(fs)
	cfg.Platform, cfg.Counter = s.platform, s.counter
	return Open(cfg)
}

// putAll commits one single-record group per key.
func putAll(t *testing.T, s *Store, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, err := Put(s, []byte(k), []byte("v"+k)); err != nil {
			t.Fatal(err)
		}
	}
}

// readLog and writeLog are the host's hands on the active log.
func readLog(t *testing.T, fs vfs.FS) []byte {
	t.Helper()
	data, err := vfs.ReadFile(fs, "wal.log")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeLog(t *testing.T, fs vfs.FS, data []byte) {
	t.Helper()
	if err := vfs.WriteFile(fs, "wal.log", data); err != nil {
		t.Fatal(err)
	}
}

// wantForged fails unless err is a refusal the WAL tags raised.
func wantForged(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrForged) || !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("%s: Open = %v, want ErrForged", what, err)
	}
}

// TestAttackForgedWALSuffix: the host appends a well-formed group — valid
// CRCs, the next timestamp, any tag it can compute — past the last seal,
// after a clean close and after a crash that left honest groups past the
// seal. Recovery refuses the log instead of serving the forged record.
func TestAttackForgedWALSuffix(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			fs := vfs.NewMem()
			s := mustOpenP2(t, forgeCfg(fs))
			putAll(t, s, "a", "b")
			next := s.Engine().AppliedTs() + 1
			if crash {
				s.Engine().Close() // the seal Open wrote covers nothing
			} else if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := fs.Open("wal.log")
			if err != nil {
				t.Fatal(err)
			}
			forged := []record.Record{{Key: []byte("forged"), Ts: next, Kind: record.KindSet, Value: []byte("evil")}}
			if err := wal.NewWriter(f).AppendBatch(forged); err != nil {
				t.Fatal(err)
			}
			f.Close()
			s2, err := reopen(s, fs)
			if err == nil {
				res, gerr := Get(s2, []byte("forged"))
				s2.Close()
				t.Fatalf("forged suffix accepted: Get(forged) = %q, %v", res.Value, gerr)
			}
			wantForged(t, "forged group past the seal", err)
		})
	}
}

// TestAttackFlippedTagPastSeal: a tag bit flipped in any group past the seal
// — the marker's CRC recomputed, as a host can — refuses the log, and the
// untouched log still recovers every group.
func TestAttackFlippedTagPastSeal(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, forgeCfg(fs))
	putAll(t, s, "a")
	s.SealState()
	putAll(t, s, "b", "c", "d")
	s.Engine().Close() // crash: three groups past the seal
	honest := fs.Clone()

	markers := 0
	log := readLog(t, honest)
	for off := 0; off < len(log); {
		n := int(binary.BigEndian.Uint32(log[off+4:]))
		body := log[off+8 : off+8+n]
		frame := off
		off += 8 + n
		if n != 1+4+wal.TagSize || body[0] < 0xF0 {
			continue // a record frame
		}
		markers++
		if markers == 1 {
			continue // the sealed group's: the chain covers it
		}
		for bit := 0; bit < 8*wal.TagSize; bit += 37 {
			tampered := append([]byte(nil), log...)
			tampered[frame+8+5+bit/8] ^= 1 << (bit % 8)
			binary.BigEndian.PutUint32(tampered[frame:], crc32.ChecksumIEEE(tampered[frame+8:frame+8+len(body)]))
			fs.Restore(honest)
			writeLog(t, fs, tampered)
			s2, err := reopen(s, fs)
			if err == nil {
				s2.Close()
				t.Fatalf("group %d with tag bit %d flipped was accepted", markers, bit)
			}
			wantForged(t, fmt.Sprintf("group %d, tag bit %d", markers, bit), err)
		}
	}
	if markers != 4 {
		t.Fatalf("found %d COMMIT markers, want 4", markers)
	}
	fs.Restore(honest)
	s2, err := reopen(s, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.ReplayedPastSeal(); n != 3 {
		t.Fatalf("replayed %d records past the seal, want 3", n)
	}
}

// TestAttackOlderGenerationLog: the host saved the active log before a
// flush install deleted it and puts it back as the active log. Its groups
// carry this store's own tags, but for append counts the store has passed.
func TestAttackOlderGenerationLog(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, forgeCfg(fs))
	putAll(t, s, "a", "b")
	old := readLog(t, fs)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if frozen, _ := fs.List("wal-"); len(frozen) != 0 || len(readLog(t, fs)) != 0 {
		t.Fatalf("the flush left logs behind: frozen %v", frozen)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeLog(t, fs, old)
	_, err := reopen(s, fs)
	wantForged(t, "an older generation's log as the active log", err)
}

// TestAttackOtherShardsLog: two stores of one process share the platform
// and the enclave measurement, and so the sealing key. One store's log,
// tagged at the very append counts the other's would be, still fails the
// other's tags: each store keys its WAL with a seed of its own.
func TestAttackOtherShardsLog(t *testing.T) {
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	open := func(fs vfs.FS) *Store {
		cfg := forgeCfg(fs)
		cfg.Platform, cfg.Counter = platform, sgx.NewMonotonicCounter()
		return mustOpenP2(t, cfg)
	}
	fsA, fsB := vfs.NewMem(), vfs.NewMem()
	a, b := open(fsA), open(fsB)
	putAll(t, a, "x", "y")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	writeLog(t, fsB, readLog(t, fsA))
	_, err = reopen(b, fsB)
	wantForged(t, "another shard's log", err)
}

// TestAttackTornGroupOfEarlierIncarnation: a group that was appended but
// lost in a crash — here cut off the log — is kept by the host and put back
// in place of the group written at the same position after recovery. It
// carries a tag this store computed, for the same append count and chain,
// but under the previous incarnation's key: every Open seals under a fresh
// one before it accepts a write.
func TestAttackTornGroupOfEarlierIncarnation(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, forgeCfg(fs))
	putAll(t, s, "a")
	cut := len(readLog(t, fs))
	putAll(t, s, "lost")
	s.Engine().Close() // crash
	kept := readLog(t, fs)
	writeLog(t, fs, kept[:cut]) // the crash cost the last group

	s2, err := reopen(s, fs)
	if err != nil {
		t.Fatal(err)
	}
	putAll(t, s2, "acked")
	s2.Engine().Close() // crash
	writeLog(t, fs, kept)
	_, err = reopen(s, fs)
	wantForged(t, "a lost group of the previous incarnation", err)
}
