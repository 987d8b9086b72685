package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// sectionRow is one byte of the group section a Get of sectionTarget reads:
// flipped, the Get must fail with ErrForged or ErrIncomplete, or, for the
// one row on no path the Get reads, return the stored value.
type sectionRow struct {
	name     string
	off      int
	harmless bool
}

// sectionTarget is the key whose group section sectionRows tampers with.
const sectionTarget = 150

// sectionRows finds, in the one run of the first n keys, the table and
// the group section of the block holding sectionTarget's leaf, and returns
// the table, the rows — a subtree node on the witness's path, the group
// root's path, each field of the section header, and the witness's own leaf
// node — and the group's keys' range, [lo, hi).
func sectionRows(r *hostRun, n int) (file string, rows []sectionRow, lo, hi int, err error) {
	// The run's tree, rebuilt from its records: leaf i is key(i).
	snap := r.s.Engine().AcquireSnapshot()
	b := &refTreeBuilder{}
	err = snap.RunRecords(0, func(rec record.Record) error { return b.Add(rec.Clone()) })
	snap.Release()
	if err != nil {
		return "", nil, 0, 0, err
	}
	tree, _ := b.Finish()
	if tree.NumLeaves() != n {
		return "", nil, 0, 0, fmt.Errorf("%d leaves, want %d", tree.NumLeaves(), n)
	}
	// The section of the block holding the target leaf: the one of the
	// latest block start at or before it, for the k the run was cut with.
	var at, k, from int
	names, _ := r.h.List("")
search:
	for k = 0; k <= merkle.Height(n); k++ {
		for from = sectionTarget; from >= sectionTarget&^(1<<k-1); from-- {
			sec := tree.AppendSection(nil, k, from)
			for _, name := range names {
				img, _ := vfs.ReadFile(r.h, name)
				if at = bytes.Index(img, sec); strings.HasSuffix(name, ".sst") && at >= 0 {
					file = name
					rows = append(rows, sectionRow{"group root's path", at + len(sec) + 1 + 7, false})
					break search
				}
			}
		}
	}
	if file == "" {
		return "", nil, 0, 0, fmt.Errorf("no block carries the target leaf's section")
	}
	g := from >> k
	upper := merkle.PathLen(g, (n-1)>>k+1) * merkle.PathNodeSize
	if k == 0 || upper == 0 {
		return "", nil, 0, 0, fmt.Errorf("k = %d and a %d-byte root path: the rows need both", k, upper)
	}
	rows[0].off -= upper
	nLen := len(binary.AppendUvarint(nil, uint64(n)))
	nodes := at + 1 + nLen + len(binary.AppendUvarint(nil, uint64(from)))
	node := func(leaf int) int { return nodes + (leaf-g<<k)*hashutil.Size + 7 }
	rows = append(rows,
		sectionRow{"subtree node on the witness's path", node(sectionTarget ^ 1), false},
		sectionRow{"header: k", at, false},
		sectionRow{"header: leaf count", at + 1, false},
		sectionRow{"header: first leaf", at + 1 + nLen, false},
		sectionRow{"subtree node on no read path", node(sectionTarget), true})
	return file, rows, g << k, (g + 1) << k, nil
}

// fileIndexEntry is one entry of a table's index block as the file holds it.
type fileIndexEntry struct {
	key               []byte
	ts, off, blockLen uint64
}

// tableIndex parses the index block of a table image.
func tableIndex(img []byte) []fileIndexEntry {
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
