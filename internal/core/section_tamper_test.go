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

// fileIndexEntry is one entry of a table's index block as the file holds it.
type fileIndexEntry struct {
	key               []byte
	ts, off, blockLen uint64
}

// tableIndex parses the index block of a table image.
func tableIndex(t *testing.T, img []byte) []fileIndexEntry {
	t.Helper()
	ft := img[len(img)-48:]
	off, n := binary.BigEndian.Uint64(ft[16:24]), binary.BigEndian.Uint64(ft[24:32])
	ib := img[off : off+n]
	out := make([]fileIndexEntry, binary.BigEndian.Uint32(ib))
	p := 4
	for i := range out {
		klen, w := binary.Uvarint(ib[p:])
		p += w
		e := &out[i]
		e.key = ib[p : p+int(klen)]
		p += int(klen)
		e.ts = binary.BigEndian.Uint64(ib[p:])
		e.off = binary.BigEndian.Uint64(ib[p+8:])
		e.blockLen = binary.BigEndian.Uint64(ib[p+16:])
		p += 24
	}
	return out
}

// withIndex returns the table image with its index block replaced by
// entries and the footer's index length fixed up, as a host can write it.
func withIndex(img []byte, entries []fileIndexEntry) []byte {
	ft := img[len(img)-48:]
	off := binary.BigEndian.Uint64(ft[16:24])
	out := append([]byte(nil), img[:off]...)
	ib := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		ib = binary.AppendUvarint(ib, uint64(len(e.key)))
		ib = append(ib, e.key...)
		for _, v := range []uint64{e.ts, e.off, e.blockLen} {
			ib = binary.BigEndian.AppendUint64(ib, v)
		}
	}
	out = append(out, ib...)
	footer := append([]byte(nil), ft...)
	binary.BigEndian.PutUint64(footer[24:32], uint64(len(ib)))
	return append(out, footer...)
}

// TestAttackIndexLies: a P2 table's index is the host's — only the
// untrusted seek reads it — so the host may lie in it. It points a block's
// keys at the next block (the block's index key moved down to its
// predecessor's), or drops a block from the index. Every verified Get and
// Scan then returns the oracle's answer or fails with an ErrAuthFailed
// subclass, and the dropped block's keys do fail.
func TestAttackIndexLies(t *testing.T) {
	mem := vfs.NewMem()
	cfg := smallCfg(mem)
	cfg.MemtableSize, cfg.TableFileSize = 1<<20, 1<<20
	cfg.DisableCompaction = true
	s := mustOpenP2(t, cfg)
	const n = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	oracle := map[string]string{}
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("value-%05d", i)
		if _, err := Put(s, key(i), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[string(key(i))] = v
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Platform, cfg.Counter = s.platform, s.counter
	tables := tableFiles(t, mem)
	if len(tables) != 1 {
		t.Fatalf("%d tables, want 1", len(tables))
	}
	var name string
	var img []byte
	for name, img = range tables {
	}
	index := tableIndex(t, img)
	if len(index) < 4 {
		t.Fatalf("%d blocks, want several", len(index))
	}
	const lied = 2

	for _, lie := range []string{"wrong block", "dropped block"} {
		t.Run(lie, func(t *testing.T) {
			entries := append([]fileIndexEntry(nil), index...)
			if lie == "wrong block" {
				entries[lied].key, entries[lied].ts = entries[lied-1].key, 0
			} else {
				entries = append(entries[:lied], entries[lied+1:]...)
			}
			if err := vfs.WriteFile(mem, name, withIndex(img, entries)); err != nil {
				t.Fatal(err)
			}
			s := mustOpenP2(t, cfg)
			defer s.Close()
			refused := 0
			check := func(what string, ok bool, err error) {
				t.Helper()
				switch {
				case err != nil && !errors.Is(err, ErrAuthFailed):
					t.Fatalf("%s: %v, want the oracle's answer or ErrAuthFailed", what, err)
				case err != nil:
					refused++
				case !ok:
					t.Fatalf("%s: a wrong answer passed verification", what)
				}
			}
			lost := map[string]bool{}
			for i := 0; i < n; i++ {
				k := key(i)
				res, err := Get(s, k)
				check(fmt.Sprintf("Get(%s)", k), res.Found && string(res.Value) == oracle[string(k)], err)
				if err != nil {
					lost[string(k)] = true
				}
				absent := append(k, 'x')
				res, err = Get(s, absent)
				check(fmt.Sprintf("Get(%s)", absent), !res.Found, err)
			}
			for _, r := range [][2]int{{0, n - 1}, {n / 4, n / 2}, {n / 2, 3 * n / 4}} {
				rows, err := Scan(s, key(r[0]), key(r[1]))
				ok := len(rows) == r[1]-r[0]+1
				for j := 0; ok && j < len(rows); j++ {
					ok = string(rows[j].Key) == string(key(r[0]+j)) && string(rows[j].Value) == oracle[string(rows[j].Key)]
				}
				check(fmt.Sprintf("Scan[%d, %d]", r[0], r[1]), ok, err)
			}
			if lie == "dropped block" && (len(lost) == 0 || refused == 0) {
				t.Fatalf("the dropped block's keys were all answered")
			}
			t.Logf("%d reads refused, %d keys lost to Gets", refused, len(lost))
		})
	}
}
