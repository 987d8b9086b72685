package merkle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"elsm/internal/hashutil"
)

func leafSet(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = hashutil.Of([]byte{byte(i), byte(i >> 8), 0xab})
	}
	return leaves
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if got := tr.Root(); !got.IsZero() {
		t.Fatalf("empty tree root = %s, want zero", got)
	}
	if tr.NumLeaves() != 0 {
		t.Fatalf("empty tree leaves = %d", tr.NumLeaves())
	}
}

func TestSingleLeaf(t *testing.T) {
	leaves := leafSet(1)
	tr := New(leaves)
	if tr.Root() != leaves[0] {
		t.Fatalf("single-leaf root should be the leaf itself")
	}
	if err := VerifyPath(leaves[0], 0, 1, tr.Path(0), tr.Root()); err != nil {
		t.Fatalf("single-leaf path: %v", err)
	}
}

func TestPathVerifiesAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 100, 257} {
		leaves := leafSet(n)
		tr := New(leaves)
		for i := 0; i < n; i++ {
			if err := VerifyPath(leaves[i], i, n, tr.Path(i), tr.Root()); err != nil {
				t.Fatalf("n=%d leaf %d: %v", n, i, err)
			}
		}
	}
}

func TestPathRejectsWrongIndex(t *testing.T) {
	leaves := leafSet(10)
	tr := New(leaves)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i == j {
				continue
			}
			if err := VerifyPath(leaves[i], j, 10, tr.Path(i), tr.Root()); err == nil {
				t.Fatalf("leaf %d verified at claimed index %d", i, j)
			}
		}
	}
}

func TestPathRejectsWrongLeafCount(t *testing.T) {
	// numLeaves is trusted enclave state, never attacker-supplied, so the
	// requirement is only that claims which CHANGE the path shape fail
	// (claims that leave the shape identical — e.g. 9 vs 10 for a
	// left-side leaf — verify the same fold and are harmless).
	leaves := leafSet(10)
	tr := New(leaves)
	path := tr.Path(3)
	for _, n := range []int{1, 2, 3, 4, 5} {
		if err := VerifyPath(leaves[3], 3, n, path, tr.Root()); err == nil {
			t.Fatalf("path verified with shape-changing numLeaves %d", n)
		}
	}
	// The last leaf's shape is the most count-sensitive.
	last := tr.Path(9)
	for _, n := range []int{11, 12, 16} {
		if err := VerifyPath(leaves[9], 9, n, last, tr.Root()); err == nil {
			t.Fatalf("last-leaf path verified with numLeaves %d", n)
		}
	}
}

func TestPathRejectsTamperedLeaf(t *testing.T) {
	leaves := leafSet(16)
	tr := New(leaves)
	bad := leaves[5]
	bad[0] ^= 1
	if err := VerifyPath(bad, 5, 16, tr.Path(5), tr.Root()); err == nil {
		t.Fatal("tampered leaf verified")
	}
}

func TestPathRejectsTamperedPath(t *testing.T) {
	leaves := leafSet(16)
	tr := New(leaves)
	path := tr.Path(5)
	path[1].Hash[3] ^= 0x80
	if err := VerifyPath(leaves[5], 5, 16, path, tr.Root()); err == nil {
		t.Fatal("tampered path verified")
	}
}

func TestPathRejectsTruncatedPath(t *testing.T) {
	leaves := leafSet(16)
	tr := New(leaves)
	path := tr.Path(5)
	if err := VerifyPath(leaves[5], 5, 16, path[:len(path)-1], tr.Root()); err == nil {
		t.Fatal("truncated path verified")
	}
	extra := append(append([]PathNode(nil), path...), path[0])
	if err := VerifyPath(leaves[5], 5, 16, extra, tr.Root()); err == nil {
		t.Fatal("over-long path verified")
	}
}

func TestRangeProofAllRanges(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 13} {
		leaves := leafSet(n)
		tr := New(leaves)
		for start := 0; start < n; start++ {
			for end := start; end < n; end++ {
				p, err := tr.RangeProofFor(start, end)
				if err != nil {
					t.Fatalf("n=%d [%d,%d]: %v", n, start, end, err)
				}
				if err := VerifyRange(leaves[start:end+1], n, p, tr.Root()); err != nil {
					t.Fatalf("n=%d verify [%d,%d]: %v", n, start, end, err)
				}
			}
		}
	}
}

func TestRangeProofRejectsOmittedLeaf(t *testing.T) {
	leaves := leafSet(16)
	tr := New(leaves)
	p, err := tr.RangeProofFor(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Drop an interior leaf — an incomplete range result.
	subset := append(append([]Hash(nil), leaves[4:6]...), leaves[7:10]...)
	if err := VerifyRange(subset, 16, p, tr.Root()); err == nil {
		t.Fatal("range with omitted leaf verified")
	}
}

func TestRangeProofRejectsShiftedStart(t *testing.T) {
	leaves := leafSet(16)
	tr := New(leaves)
	p, err := tr.RangeProofFor(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	p.Start = 5 // lie about the position
	if err := VerifyRange(leaves[4:10], 16, p, tr.Root()); err == nil {
		t.Fatal("range with shifted start verified")
	}
}

func TestRangeProofRejectsForgedLeaf(t *testing.T) {
	leaves := leafSet(16)
	tr := New(leaves)
	p, err := tr.RangeProofFor(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]Hash(nil), leaves[4:10]...)
	forged[2][0] ^= 1
	if err := VerifyRange(forged, 16, p, tr.Root()); err == nil {
		t.Fatal("forged range leaf verified")
	}
}

// TestRangeEqualsPathSiblings checks the property the eLSM proof embedding
// relies on: a range proof's boundary hashes equal the left/right siblings
// of the boundary leaves' authentication paths.
func TestRangeEqualsPathSiblings(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(60)
		leaves := leafSet(n)
		tr := New(leaves)
		start := rnd.Intn(n)
		end := start + rnd.Intn(n-start)
		p, err := tr.RangeProofFor(start, end)
		if err != nil {
			t.Fatal(err)
		}
		var left, right []Hash
		for _, pn := range tr.Path(start) {
			if pn.Left {
				left = append(left, pn.Hash)
			}
		}
		for _, pn := range tr.Path(end) {
			if !pn.Left {
				right = append(right, pn.Hash)
			}
		}
		assembled := &RangeProof{Start: start, Left: left, Right: right}
		if err := VerifyRange(leaves[start:end+1], n, assembled, tr.Root()); err != nil {
			t.Fatalf("n=%d [%d,%d]: assembled-from-paths proof failed: %v", n, start, end, err)
		}
		_ = p
	}
}

// Property: every leaf of a randomly sized tree verifies, and no leaf
// verifies at a shifted index.
func TestQuickPathSoundness(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%200) + 1
		rnd := rand.New(rand.NewSource(seed))
		leaves := make([]Hash, n)
		for i := range leaves {
			rnd.Read(leaves[i][:])
		}
		tr := New(leaves)
		i := rnd.Intn(n)
		if VerifyPath(leaves[i], i, n, tr.Path(i), tr.Root()) != nil {
			return false
		}
		j := (i + 1 + rnd.Intn(n)) % n
		if j != i && VerifyPath(leaves[i], j, n, tr.Path(i), tr.Root()) == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: two different leaf sets never produce the same root.
func TestQuickRootBinding(t *testing.T) {
	f := func(seed int64, sz uint8, flipLeaf uint8, flipBit uint8) bool {
		n := int(sz%50) + 1
		rnd := rand.New(rand.NewSource(seed))
		leaves := make([]Hash, n)
		for i := range leaves {
			rnd.Read(leaves[i][:])
		}
		t1 := New(leaves)
		mutated := make([]Hash, n)
		copy(mutated, leaves)
		mutated[int(flipLeaf)%n][flipBit%32] ^= 1 << (flipBit % 8)
		t2 := New(mutated)
		return t1.Root() != t2.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		leaves := leafSet(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				New(leaves)
			}
		})
	}
}

func BenchmarkVerifyPath(b *testing.B) {
	leaves := leafSet(65536)
	tr := New(leaves)
	path := tr.Path(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyPath(leaves[12345], 12345, 65536, path, tr.Root()); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	case n >= 1<<16:
		return "64k"
	default:
		return "1k"
	}
}

// referenceRoot is the tree definition spelled out with no shared code: pair
// adjacent nodes level by level, promote a lone trailing node.
func referenceRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return hashutil.Zero
	}
	cur := append([]Hash(nil), leaves...)
	for len(cur) > 1 {
		var next []Hash
		for i := 0; i < len(cur); i += 2 {
			if i+1 < len(cur) {
				next = append(next, hashutil.NodeHash(cur[i], cur[i+1]))
			} else {
				next = append(next, cur[i])
			}
		}
		cur = next
	}
	return cur[0]
}

// TestRootBuilderMatchesTree feeds every leaf count up to 130 (all the
// promotion patterns of eight levels) to the streaming builder and checks it
// against the materialized tree and the reference, at every prefix.
func TestRootBuilderMatchesTree(t *testing.T) {
	leaves := leafSet(130)
	var b RootBuilder
	for n := 0; n <= len(leaves); n++ {
		if n > 0 {
			b.Add(leaves[n-1])
		}
		want := referenceRoot(leaves[:n])
		if got := New(leaves[:n]).Root(); got != want {
			t.Fatalf("New over %d leaves: root %s, want %s", n, got, want)
		}
		if got := b.Root(); got != want || b.NumLeaves() != n {
			t.Fatalf("RootBuilder over %d leaves: root %s (%d leaves), want %s", n, got, b.NumLeaves(), want)
		}
	}
}

// TestBuildInPlaceMatchesNew rebuilds one Tree over one reused node array
// for every leaf count up to 300, larger and smaller counts alternating and
// the spare capacity holding the previous tree's nodes, and requires the
// roots, paths and sections of New (and the reference root). Build hashes
// into the array it is given when it has room and grows it once otherwise.
func TestBuildInPlaceMatchesNew(t *testing.T) {
	const maxN = 300
	all := leafSet(maxN)
	var reused Tree
	var nodes []Hash
	for i := 0; i <= maxN; i++ {
		n := i / 2
		if i%2 == 1 {
			n = maxN - i/2
		}
		want := New(all[:n])
		if got := want.Root(); got != referenceRoot(all[:n]) {
			t.Fatalf("New over %d leaves: root %s, reference %s", n, got, referenceRoot(all[:n]))
		}
		nodes = append(nodes[:0], all[:n]...)
		roomy := cap(nodes) >= NodeCount(n)
		built := reused.Build(nodes)
		if len(built) != n || (roomy && n > 0 && &built[0] != &nodes[0]) {
			t.Fatalf("Build over %d leaves: %d leaves back, moved %v with room %v", n, len(built), n > 0 && &built[0] != &nodes[0], roomy)
		}
		nodes = built
		if reused.Root() != want.Root() || reused.NumLeaves() != n {
			t.Fatalf("Build over %d leaves: root %s (%d leaves), New %s", n, reused.Root(), reused.NumLeaves(), want.Root())
		}
		for leaf := 0; leaf < n; leaf++ {
			if string(reused.AppendPath(nil, leaf)) != string(want.AppendPath(nil, leaf)) {
				t.Fatalf("Build over %d leaves: path of leaf %d differs from New's", n, leaf)
			}
		}
		for k := 0; n > 0 && k <= Height(n); k++ {
			for _, first := range []int{0, n / 3, n / 2, n - 1} {
				if string(reused.AppendSection(nil, k, first)) != string(want.AppendSection(nil, k, first)) {
					t.Fatalf("Build over %d leaves: section 2^%d at leaf %d differs from New's", n, k, first)
				}
			}
		}
	}
}

// TestAppendPathMatchesPath checks the append-style encoder and PathLen
// against Path for every leaf of every tree size up to 70.
func TestAppendPathMatchesPath(t *testing.T) {
	prefix := []byte("keep")
	for n := 1; n <= 70; n++ {
		tr := New(leafSet(n))
		for i := 0; i < n; i++ {
			path := tr.Path(i)
			if got := PathLen(i, n); got != len(path) {
				t.Fatalf("PathLen(%d, %d) = %d, Path has %d steps", i, n, got, len(path))
			}
			want := append([]byte(nil), prefix...)
			for _, pn := range path {
				side := byte(0)
				if pn.Left {
					side = 1
				}
				want = append(append(want, side), pn.Hash[:]...)
			}
			got := tr.AppendPath(append([]byte(nil), prefix...), i)
			if string(got) != string(want) || len(got) != len(prefix)+len(path)*PathNodeSize {
				t.Fatalf("AppendPath(%d) of %d leaves differs from Path", i, n)
			}
		}
	}
}

func BenchmarkAppendPath(b *testing.B) {
	const n = 50000
	tr := New(leafSet(n))
	buf := make([]byte, 0, 64*PathNodeSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendPath(buf[:0], (i*7919)%n)
	}
	sinkBytes = buf
}

func BenchmarkPath(b *testing.B) {
	const n = 50000
	tr := New(leafSet(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPath = tr.Path((i * 7919) % n)
	}
}

var (
	sinkBytes []byte
	sinkPath  []PathNode
)
