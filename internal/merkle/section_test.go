package merkle

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestSectionPathsExact: for every leaf of every tree of 1 to 300 leaves and
// every group size 2^0 … 2^6 (capped at the tree's height, as a writer caps
// it), the path expanded from the section of the leaf's group is AppendPath's,
// byte for byte — from a section whose first leaf is the group's first and
// from one whose first leaf is the leaf itself (a block that opens inside
// the group). The last, partial group and promoted tail nodes are in every
// size that is not a power of two.
func TestSectionPathsExact(t *testing.T) {
	for n := 1; n <= 300; n++ {
		tr := New(leafSet(n))
		for k := 0; k <= min(6, Height(n)); k++ {
			for leaf := 0; leaf < n; leaf++ {
				want := tr.AppendPath(nil, leaf)
				for _, first := range []int{leaf &^ (1<<k - 1), leaf} {
					sec := tr.AppendSection(nil, k, first)
					if len(sec) != SectionLen(k, n, first) {
						t.Fatalf("n=%d k=%d first=%d: section of %d bytes, SectionLen %d", n, k, first, len(sec), SectionLen(k, n, first))
					}
					s, err := ParseSection(sec)
					if err != nil {
						t.Fatalf("n=%d k=%d first=%d: %v", n, k, first, err)
					}
					if got := s.AppendPath(nil, leaf); !bytes.Equal(got, want) || s.PathLen(leaf)*PathNodeSize != len(want) {
						t.Fatalf("n=%d k=%d leaf %d from first %d: expanded path differs from AppendPath", n, k, leaf, first)
					}
				}
			}
		}
	}
}

// TestSectionLiesDetectedOrHarmless: a section whose header lies about k, the
// leaf count or the first leaf — the nodes and upper path left as they were —
// either fails to parse, refuses to expand, or expands to a path that the path
// walker (shape check, then root check) rejects for the record it is handed
// with. The one exception is a lie that changes nothing: the expanded path is
// the true one at the true index. Nothing panics or indexes out of range.
func TestSectionLiesDetectedOrHarmless(t *testing.T) {
	header := func(k, n, first int) []byte {
		h := []byte{byte(k)}
		h = binary.AppendUvarint(h, uint64(n))
		return binary.AppendUvarint(h, uint64(first))
	}
	for n := 1; n <= 300; n++ {
		leaves := leafSet(n)
		tr := New(leaves)
		for k := 0; k <= min(6, Height(n)); k++ {
			groups := (n-1)>>k + 1
			for _, g := range []int{0, groups / 2, groups - 1} {
				first, end := g<<k, min((g+1)<<k, n)
				sec := tr.AppendSection(nil, k, first)
				body := sec[len(header(k, n, first)):]
				for _, lie := range [][3]int{
					{k - 1, n, first}, {k + 1, n, first}, {k + 2, n, first}, {255, n, first},
					{k, n - 1, first}, {k, n + 1, first}, {k, 2 * n, first}, {k, n + 64, first},
					{k, n, first - 1}, {k, n, first + 1}, {k, n, first + 1<<k}, {k, n, n}, {k, n, n + 3},
				} {
					if lie[0] < 0 || lie[1] < 1 || lie[2] < 0 {
						continue
					}
					s, err := ParseSection(append(header(lie[0], lie[1], lie[2]), body...))
					if err != nil {
						continue
					}
					for _, ord := range []int{0, end - first - 1} {
						leaf := first + ord        // the record's own leaf
						claimed := s.First() + ord // what the block makes of it
						if s.PathLen(claimed) < 0 {
							if s.AppendPath(nil, claimed) != nil {
								t.Fatalf("n=%d k=%d group %d: header %v: a refused leaf expanded", n, k, g, lie)
							}
							continue
						}
						path := s.AppendPath(nil, claimed)
						_, err := (*NodeCache)(nil).VerifyPath(leaves[leaf], claimed, n, path, tr.Root())
						if err == nil && (claimed != leaf || !bytes.Equal(path, tr.AppendPath(nil, leaf))) {
							t.Fatalf("n=%d k=%d group %d: header %v accepted leaf %d as %d", n, k, g, lie, leaf, claimed)
						}
					}
				}
				for cut := 0; cut < len(sec); cut += 1 + cut/4 {
					if _, err := ParseSection(sec[:cut]); err == nil {
						t.Fatalf("n=%d k=%d group %d: section cut to %d of %d bytes parsed", n, k, g, cut, len(sec))
					}
				}
				if _, err := ParseSection(append(sec, 0)); err == nil {
					t.Fatalf("n=%d k=%d group %d: section with a trailing byte parsed", n, k, g)
				}
			}
		}
	}
}
