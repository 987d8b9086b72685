package core

import (
	"bytes"
	"fmt"
	"testing"

	"elsm/internal/kvtest/hostfs"
	"elsm/internal/vfs"
)

// TestParentManifestIsIgnored writes over a store's tables a MANIFEST in the
// format before this one, every table bound, size and count in it, every
// run's bytes, and the next file number and run ID wrong: the store opens
// on it, routes every Get to its table and verifies it, sizes its runs from
// the tables, and compacts into new files.
func TestParentManifestIsIgnored(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	cfg.MemtableSize, cfg.LevelBase = 1<<20, 1<<20 // every flush and compaction an explicit one
	value := func(round, i int) []byte { return fmt.Appendf(nil, "round%d-value-%040d", round, i) }
	s := mustOpenP2(t, cfg)
	for round := 1; round <= 2; round++ {
		ops := make([]BatchOp, 600)
		for i := range ops {
			ops[i] = BatchOp{Key: key(i * round), Value: value(round, i*round)}
		}
		if _, err := s.Commit(nil, ops); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			if err := s.Compact(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs, diskBytes := s.Engine().Runs(), s.Engine().DiskBytes()
	cfg.Platform, cfg.Counter = s.platform, s.counter
	if len(runs) != 2 || runs[1].Level != 2 {
		t.Fatalf("set-up: runs %v, want one at level 1 and one at level 2", runs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := vfs.ReadFile(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "MANIFEST", hostfs.ParentManifest(m)); err != nil {
		t.Fatal(err)
	}

	s = mustOpenP2(t, cfg)
	defer s.Close()
	if got := s.Engine().DiskBytes(); got != diskBytes {
		t.Fatalf("DiskBytes %d after the reopen, %d before", got, diskBytes)
	}
	readAll := func(stage string) {
		t.Helper()
		for i := 0; i < 1200; i++ {
			res, err := Get(s, key(i))
			want := value(2, i)
			switch {
			case i%2 == 1 && i < 600:
				want = value(1, i)
			case i%2 == 1:
				want = nil
			}
			if err != nil || res.Found != (want != nil) || !bytes.Equal(res.Value, want) {
				t.Fatalf("%s: Get(%s) = %q, %v, %v; want %q", stage, key(i), res.Value, res.Found, err, want)
			}
		}
	}
	readAll("reopened")
	if err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	readAll("compacted")
}
