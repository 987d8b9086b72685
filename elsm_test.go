package elsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"elsm/internal/crypto"
	"elsm/internal/lsm"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

func testOptions(mode Mode) Options {
	return Options{
		Mode:      mode,
		CacheSize: 64 << 10,
		geometry: lsm.Geometry{
			MemtableSize:  4 << 10,
			TableFileSize: 4 << 10,
			LevelBase:     16 << 10,
			BlockSize:     512,
		},
	}
}

func TestAllModesBasicOps(t *testing.T) {
	for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := testOptions(mode)
			if mode == ModeP1 {
				opts.mmapReads = false
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if s.Mode() != mode {
				t.Fatalf("mode = %v", s.Mode())
			}
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key%04d", i)
				if _, err := s.Put([]byte(key), []byte(fmt.Sprintf("val%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Get([]byte("key0123"))
			if err != nil || !res.Found || string(res.Value) != "val123" {
				t.Fatalf("get = %+v err=%v", res, err)
			}
			if res, _ := s.Get([]byte("missing")); res.Found {
				t.Fatal("found missing key")
			}
			out, err := s.Scan([]byte("key0100"), []byte("key0109"))
			if err != nil || len(out) != 10 {
				t.Fatalf("scan = %d err=%v", len(out), err)
			}
			if _, err := s.Delete([]byte("key0123")); err != nil {
				t.Fatal(err)
			}
			if res, _ := s.Get([]byte("key0123")); res.Found {
				t.Fatal("deleted key found")
			}
		})
	}
}

func TestHistoricalReads(t *testing.T) {
	s, err := Open(testOptions(ModeP2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts1, _ := s.Put([]byte("k"), []byte("v1"))
	ts2, _ := s.Put([]byte("k"), []byte("v2"))
	res, err := s.GetAt([]byte("k"), ts1)
	if err != nil || string(res.Value) != "v1" {
		t.Fatalf("GetAt(ts1) = %+v err=%v", res, err)
	}
	res, _ = s.GetAt([]byte("k"), ts2)
	if string(res.Value) != "v2" {
		t.Fatalf("GetAt(ts2) = %+v", res)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	fs := vfs.NewMem()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	counter := sgx.NewMonotonicCounter()
	opts := testOptions(ModeP2)
	opts.FS = fs
	opts.Platform = platform
	opts.ShardCounters = []*sgx.MonotonicCounter{counter}

	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Close()

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, err := s2.Get([]byte("key0400"))
	if err != nil || !res.Found || string(res.Value) != "v400" {
		t.Fatalf("after reopen: %+v err=%v", res, err)
	}
}

func TestAuthFailureClassification(t *testing.T) {
	fs := vfs.NewMem()
	opts := testOptions(ModeP2)
	opts.FS = fs
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 1500; i++ {
		s.Put([]byte(fmt.Sprintf("key%05d", i)), bytes.Repeat([]byte("v"), 50))
	}
	// Let background flush/compaction settle so the table set is stable,
	// then corrupt all sstables densely.
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List("0")
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			continue // deleted by a racing compaction install
		}
		for off := int64(0); off < f.Size(); off += 31 {
			fs.Corrupt(name, off)
		}
	}
	sawAuthFailure := false
	for i := 0; i < 1500 && !sawAuthFailure; i++ {
		_, err := s.Get([]byte(fmt.Sprintf("key%05d", i)))
		if err != nil {
			if !IsAuthFailure(err) {
				// Block decode errors are acceptable too, but at least
				// one verification failure must be classified.
				continue
			}
			sawAuthFailure = true
		}
	}
	if !sawAuthFailure {
		t.Fatal("no classified auth failure after corrupting every table")
	}
}

func TestEncryptionPointMode(t *testing.T) {
	mk, err := crypto.NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(ModeP2)
	opts.FS = vfs.NewMem()
	opts.Encryption = &EncryptionOptions{Mode: EncryptPoint, Key: mk}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 300; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("secret%03d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Get([]byte("secret123"))
	if err != nil || !res.Found || string(res.Value) != "val123" {
		t.Fatalf("encrypted get = %+v err=%v", res, err)
	}
	if string(res.Key) != "secret123" {
		t.Fatalf("plaintext key not recovered: %q", res.Key)
	}
	if res, _ := s.Get([]byte("secretXYZ")); res.Found {
		t.Fatal("found absent encrypted key")
	}
	// No plaintext on the untrusted FS. Fence background maintenance first:
	// a flush install deletes frozen logs and replaced tables, and a file
	// that vanishes between List and Open has no bytes to check.
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	fs := opts.FS.(*vfs.MemFS)
	names, _ := fs.List("")
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if bytes.Contains(f.Bytes(), []byte("secret123")) || bytes.Contains(f.Bytes(), []byte("val123")) {
			t.Fatalf("plaintext leaked into %s", name)
		}
	}
	// Scans are rejected in point mode.
	if _, err := s.Scan([]byte("a"), []byte("z")); !errors.Is(err, ErrScanUnsupported) {
		t.Fatalf("scan in point mode: %v", err)
	}
	// Deletes work over ciphertext.
	if _, err := s.Delete([]byte("secret123")); err != nil {
		t.Fatal(err)
	}
	if res, _ := s.Get([]byte("secret123")); res.Found {
		t.Fatal("deleted encrypted key found")
	}
}

func TestEncryptionRangeMode(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.Encryption = &EncryptionOptions{Mode: EncryptRange}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("host%03d.example.com", i)), []byte("cert")); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.Scan([]byte("host050.example.com"), []byte("host059.example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("encrypted range scan = %d results", len(out))
	}
	for i, r := range out {
		want := fmt.Sprintf("host%03d.example.com", 50+i)
		if string(r.Key) != want {
			t.Fatalf("result %d = %q want %q", i, r.Key, want)
		}
	}
	res, err := s.Get([]byte("host100.example.com"))
	if err != nil || !res.Found {
		t.Fatalf("range-mode get: %+v err=%v", res, err)
	}
}

func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(Options{Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	opts := testOptions(ModeP1)
	opts.mmapReads = true
	if _, err := Open(opts); err == nil {
		t.Fatal("P1 with mmap accepted")
	}
}

func TestOpenValidatesTuningOptions(t *testing.T) {
	bad := []struct {
		opts    Options
		wantMsg string
	}{
		{Options{CacheSize: -1}, "CacheSize must be ≥ 0"},
		{Options{KeepVersions: -1}, "KeepVersions must be ≥ 0"},
		{Options{IterChunkKeys: -1}, "IterChunkKeys must be ≥ 0"},
		{Options{MaxAsyncCommitBacklog: -1}, "MaxAsyncCommitBacklog must be ≥ 0"},
		{Options{CompactionWorkers: -1}, "CompactionWorkers must be ≥ 0"},
	}
	for i, tc := range bad {
		_, err := Open(tc.opts)
		if err == nil {
			t.Fatalf("bad option set %d accepted: %+v", i, tc.opts)
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Fatalf("bad option set %d: error %q does not name the offending knob (want %q)", i, err, tc.wantMsg)
		}
	}
	// And valid settings work end to end: tiny chunks.
	for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
		opts := testOptions(mode)
		opts.IterChunkKeys = 4
		s, err := Open(opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		out, err := s.Scan([]byte("k"), []byte("l"))
		if err != nil || len(out) != 20 {
			t.Fatalf("%v: scan with tuned chunks = %d results, err %v", mode, len(out), err)
		}
		s.Close()
	}
}

func TestDirBackedStore(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.Dir = t.TempDir()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Put([]byte("disk"), []byte("backed")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Get([]byte("disk"))
	if err != nil || !res.Found || string(res.Value) != "backed" {
		t.Fatalf("os-dir store get: %+v err=%v", res, err)
	}
}
