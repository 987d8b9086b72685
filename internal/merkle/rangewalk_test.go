package merkle

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"elsm/internal/hashutil"
)

// smallCache is a NodeCache small enough to make one per case (a tree of 65
// leaves has 130 nodes; a direct-mapped cache may forget some, never lie).
func smallCache() *NodeCache { return &NodeCache{slots: make([]nodeSlot, 256)} }

// rangeInput is one call of the range walker.
type rangeInput struct {
	leaves      []Hash
	start, n    int
	first, last []byte
	root        Hash
}

func honestRange(tree *Tree, start, end int) rangeInput {
	in := rangeInput{start: start, n: tree.NumLeaves(), root: tree.Root()}
	for i := start; i <= end; i++ {
		in.leaves = append(in.leaves, tree.Leaf(i))
	}
	in.first, in.last = tree.AppendPath(nil, start), tree.AppendPath(nil, end)
	return in
}

// walk runs the range walker on a copy of the leaves (it folds in place).
func (in rangeInput) walk(c *NodeCache) (PathWalk, error) {
	return c.VerifyRange(slices.Clone(in.leaves), in.start, in.n, in.first, in.last, in.root)
}

// reference hands the same input to the allocating VerifyRange the way the
// ledger does: left siblings of the first path, right siblings of the last.
func (in rangeInput) reference() error {
	rp := &RangeProof{Start: in.start}
	for _, pn := range decodeSteps(in.first) {
		if pn.Left {
			rp.Left = append(rp.Left, pn.Hash)
		}
	}
	for _, pn := range decodeSteps(in.last) {
		if !pn.Left {
			rp.Right = append(rp.Right, pn.Hash)
		}
	}
	return VerifyRange(in.leaves, in.n, rp, in.root)
}

// forgeries returns what a host can do to an honest range short of breaking
// SHA-256, each of which every walker must reject: a forged leaf, an omitted
// leaf, the span claimed one position off, a boundary path with a step too
// many, one too few or a flipped side byte, and a flipped hash in a boundary
// sibling the fold consumes below the level where the span collapses.
func (in rangeInput) forgeries(rng *rand.Rand) map[string]rangeInput {
	out := map[string]rangeInput{}
	clone := func() rangeInput {
		c := in
		c.leaves, c.first, c.last = slices.Clone(in.leaves), slices.Clone(in.first), slices.Clone(in.last)
		return c
	}
	f := clone()
	f.leaves[rng.Intn(len(f.leaves))][rng.Intn(hashutil.Size)] ^= 1
	out["forged leaf"] = f

	f = clone()
	f.leaves = slices.Delete(f.leaves, len(f.leaves)/2, len(f.leaves)/2+1)
	out["omitted leaf"] = f

	f = clone()
	f.start++
	out["start shifted up"] = f
	f = clone()
	f.start--
	out["start shifted down"] = f

	for _, side := range []struct {
		name string
		path *[]byte
	}{{"first", &f.first}, {"last", &f.last}} {
		name, path := side.name, side.path
		f = clone()
		*path = append(*path, make([]byte, PathNodeSize)...)
		out[name+" path: extra step"] = f
		if f = clone(); len(*path) > 0 {
			*path = (*path)[:len(*path)-PathNodeSize]
			out[name+" path: missing step"] = f
			f = clone()
			(*path)[rng.Intn(len(*path)/PathNodeSize)*PathNodeSize] ^= 1
			out[name+" path: wrong side"] = f
		}
	}

	// Boundary siblings the span phase folds in: first's step at a level where
	// the span starts odd, last's where it ends even with a node to its right.
	lo, hi, n := uint(in.start), uint(in.start+len(in.leaves)-1), uint(in.n)
	for fp, lp := 0, 0; lo < hi; lo, hi, n = lo>>1, hi>>1, (n+1)>>1 {
		if lo&1 == 1 {
			f = clone()
			f.first[fp+1+rng.Intn(hashutil.Size)] ^= 0x40
			out["consumed left sibling flipped"] = f
		}
		fp += PathNodeSize
		if hi&1 == 0 && hi+1 < n {
			f = clone()
			f.last[lp+1+rng.Intn(hashutil.Size)] ^= 0x40
			out["consumed right sibling flipped"] = f
		}
		if hi&1 == 1 || hi+1 < n {
			lp += PathNodeSize
		}
	}
	return out
}

// TestRangeWalkerMatchesVerifyRange is the differential property, exhaustive
// over every tree of up to 65 leaves (every odd width and promoted tail) and
// every span in it: with no cache, a cold cache and the cache that walk left
// behind, the range walker accepts what the reference VerifyRange accepts.
// For a spread of tree sizes it then rejects every forgery cold AND warm —
// also where the reference, which never sees the boundary paths' shape,
// would not — and a rejected walk leaves the cache exactly as it found it.
func TestRangeWalkerMatchesVerifyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	adversarial := map[int]bool{1: true, 2: true, 3: true, 5: true, 8: true, 9: true, 16: true, 17: true, 33: true, 65: true}
	for n := 1; n <= 65; n++ {
		tree := New(randomLeaves(rng, n))
		for start := 0; start < n; start++ {
			for end := start; end < n; end++ {
				in := honestRange(tree, start, end)
				if err := in.reference(); err != nil {
					t.Fatalf("n=%d [%d,%d]: reference rejects the honest range: %v", n, start, end, err)
				}
				if _, err := in.walk(nil); err != nil {
					t.Fatalf("n=%d [%d,%d]: nil cache: %v", n, start, end, err)
				}
				cache := smallCache()
				cold, err := in.walk(cache)
				if err != nil || cold.CacheHit {
					t.Fatalf("n=%d [%d,%d]: cold cache: %+v, %v", n, start, end, cold, err)
				}
				warm, err := in.walk(cache)
				if err != nil || warm.Hashes > cold.Hashes {
					t.Fatalf("n=%d [%d,%d]: warm cache: %+v after %+v, %v", n, start, end, warm, cold, err)
				}
				if !adversarial[n] {
					continue
				}
				for name, forged := range in.forgeries(rng) {
					// The reference is handed sibling lists, not paths: it cannot
					// see a malformed path whose siblings are intact.
					pathOnly := forged.start == in.start && slices.Equal(forged.leaves, in.leaves)
					if err := forged.reference(); err == nil && !pathOnly {
						t.Fatalf("n=%d [%d,%d] %s: reference accepts", n, start, end, name)
					}
					for temp, c := range map[string]*NodeCache{"nil": nil, "cold": smallCache(), "warm": cache} {
						var before []nodeSlot
						if c != nil {
							before = slotsImage(c)
						}
						_, err := forged.walk(c)
						if err == nil {
							t.Fatalf("n=%d [%d,%d] %s: accepted with a %s cache", n, start, end, name, temp)
						}
						if !errors.Is(err, ErrBadIndex) && !errors.Is(err, ErrBadPath) && !errors.Is(err, ErrRootMismatch) {
							t.Fatalf("n=%d [%d,%d] %s: unclassified error %v", n, start, end, name, err)
						}
						if c != nil && !slices.Equal(before, c.slots) {
							t.Fatalf("n=%d [%d,%d] %s: the rejected walk wrote to the %s cache", n, start, end, name, temp)
						}
					}
				}
			}
		}
	}
}

// TestRangeAndPathWalksShareOneCache: what a range walk leaves in the cache
// is what a path walk would have left there and no more. One cache is warmed
// only by VerifyPath over every leaf, another only by range walks; both then
// give the same verdict on every honest range and every forgery, and a path
// walk started under the range-warmed cache stops where the range walks
// passed.
func TestRangeAndPathWalksShareOneCache(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 1000
	tree := New(randomLeaves(rng, n))
	byPath, byRange := NewNodeCache(), NewNodeCache()
	for i := 0; i < n; i++ {
		if _, err := byPath.VerifyPath(tree.Leaf(i), i, n, tree.AppendPath(nil, i), tree.Root()); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 300; q++ {
		start := rng.Intn(n)
		if _, err := honestRange(tree, start, min(n-1, start+rng.Intn(80))).walk(byRange); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < 400; q++ {
		start := rng.Intn(n)
		in := honestRange(tree, start, min(n-1, start+rng.Intn(80)))
		if _, err := in.walk(byPath); err != nil {
			t.Fatalf("[%d,+%d] under the path-warmed cache: %v", in.start, len(in.leaves), err)
		}
		if _, err := in.walk(byRange); err != nil {
			t.Fatalf("[%d,+%d] under the range-warmed cache: %v", in.start, len(in.leaves), err)
		}
		for name, forged := range in.forgeries(rng) {
			_, perr := forged.walk(byPath)
			_, rerr := forged.walk(byRange)
			if perr == nil || rerr == nil {
				t.Fatalf("[%d,+%d] %s: path-warmed says %v, range-warmed says %v", in.start, len(in.leaves), name, perr, rerr)
			}
		}
	}
	// A one-leaf span IS a path walk: same hashes, same cache hit.
	for q := 0; q < 200; q++ {
		i := rng.Intn(n)
		cache := NewNodeCache()
		want, werr := cache.VerifyPath(tree.Leaf(i), i, n, tree.AppendPath(nil, i), tree.Root())
		got, gerr := honestRange(tree, i, i).walk(NewNodeCache())
		if werr != nil || gerr != nil || got != want {
			t.Fatalf("leaf %d: range walk %+v, %v; path walk %+v, %v", i, got, gerr, want, werr)
		}
		// The path walk warmed cache down to the leaf: the range walk hashes nothing.
		if got, gerr = honestRange(tree, i, i).walk(cache); gerr != nil || !got.CacheHit || got.Hashes != 0 {
			t.Fatalf("leaf %d under its own path's cache: %+v, %v", i, got, gerr)
		}
	}
	// And the other way: after a range walk, the path of a leaf inside the
	// span stops at the node the span collapsed to, or below the root at least.
	cache := NewNodeCache()
	if _, err := honestRange(tree, 300, 363).walk(cache); err != nil {
		t.Fatal(err)
	}
	walk, err := cache.VerifyPath(tree.Leaf(330), 330, n, tree.AppendPath(nil, 330), tree.Root())
	if err != nil || !walk.CacheHit || walk.Hashes >= PathLen(330, n) {
		t.Fatalf("path walk after a range walk over it: %+v, %v", walk, err)
	}
}

func BenchmarkRangeWalk(b *testing.B) {
	const n, span = 50000, 50
	tree := New(leafSet(n))
	in := honestRange(tree, 12345, 12345+span-1)
	leaves := make([]Hash, span)
	for _, warm := range []bool{false, true} {
		name, cache := "nil-cache", (*NodeCache)(nil)
		if warm {
			name, cache = "warm", NewNodeCache()
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(leaves, in.leaves)
				if _, err := cache.VerifyRange(leaves, in.start, n, in.first, in.last, in.root); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := in.reference(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
