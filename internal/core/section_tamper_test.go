package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// TestAttackGroupSectionTamper flips one byte of the group section in the
// block a verified Get reads — a subtree node on the witness's path, the
// group root's path, each field of the section header — and requires the Get
// to fail with ErrForged or ErrIncomplete, under a cold node cache and under
// one warmed by reading every key outside the group (a warm walk stops at the
// first cached node, and nothing below it in the group is cached). A flipped
// subtree node on no path the Get reads — the witness's own leaf node — must
// be harmless: the Get returns the oracle's value.
func TestAttackGroupSectionTamper(t *testing.T) {
	fs := vfs.NewMem()
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.BlockSize, cfg.TableFileSize = 0, 0
	cfg.DisableCompaction = true
	s := mustOpenP2(t, cfg)
	defer s.Close()
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	for i := 0; i < n; i++ {
		if _, err := Put(s, key(i), []byte(fmt.Sprintf("value-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// The run's tree, rebuilt from its records: leaf i is key(i).
	snap := s.Engine().AcquireSnapshot()
	b := &refTreeBuilder{}
	err := snap.RunRecords(0, func(rec record.Record) error { return b.Add(rec.Clone()) })
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := b.Finish()
	if tree.NumLeaves() != n {
		t.Fatalf("%d leaves, want %d", tree.NumLeaves(), n)
	}

	// Find the section of the block holding the target leaf: the one of the
	// latest block start at or before it, for the k the run was cut with.
	const target = 150
	var (
		file        string
		at, k, from int
		sec         []byte
	)
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
search:
	for k = 0; k <= merkle.Height(n); k++ {
		for from = target; from >= target&^(1<<k-1); from-- {
			sec = tree.AppendSection(nil, k, from)
			for _, name := range names {
				f, err := fs.Open(name)
				if err != nil {
					t.Fatal(err)
				}
				if at = bytes.Index(f.Bytes(), sec); strings.HasSuffix(name, ".sst") && at >= 0 {
					file = name
					break search
				}
			}
		}
	}
	if file == "" {
		t.Fatal("no block carries the target leaf's section")
	}
	g := from >> k
	upper := merkle.PathLen(g, (n-1)>>k+1) * merkle.PathNodeSize
	if k == 0 || upper == 0 {
		t.Fatalf("k = %d and a %d-byte root path: the rows below need both", k, upper)
	}
	nLen := len(binary.AppendUvarint(nil, n))
	nodes := at + 1 + nLen + len(binary.AppendUvarint(nil, uint64(from)))
	node := func(leaf int) int { return nodes + (leaf-g<<k)*hashutil.Size + 7 }

	warm := merkle.NewNodeCache()
	s.verify.nodes = warm
	for i := 0; i < n; i++ {
		if i>>k != g {
			if _, err := Get(s, key(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, row := range []struct {
		name     string
		off      int
		harmless bool
	}{
		{"subtree node on the witness's path", node(target ^ 1), false},
		{"group root's path", at + len(sec) - upper + 1 + 7, false},
		{"header: k", at, false},
		{"header: leaf count", at + 1, false},
		{"header: first leaf", at + 1 + nLen, false},
		{"subtree node on no read path", node(target), true},
	} {
		if err := fs.Corrupt(file, int64(row.off)); err != nil {
			t.Fatal(err)
		}
		for _, cache := range []struct {
			name  string
			nodes *merkle.NodeCache
		}{{"cold", merkle.NewNodeCache()}, {"warm", warm}} {
			s.verify.nodes = cache.nodes
			res, err := Get(s, key(target))
			switch {
			case row.harmless && (err != nil || string(res.Value) != fmt.Sprintf("value-%05d", target)):
				t.Errorf("%s, %s cache: Get = %q, %v; want the stored value", row.name, cache.name, res.Value, err)
			case !row.harmless && !errors.Is(err, ErrForged) && !errors.Is(err, ErrIncomplete):
				t.Errorf("%s, %s cache: Get = %q, %v; want ErrForged or ErrIncomplete", row.name, cache.name, res.Value, err)
			}
		}
		if err := fs.Corrupt(file, int64(row.off)); err != nil { // flip it back
			t.Fatal(err)
		}
	}
}
