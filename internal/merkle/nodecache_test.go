package merkle

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"elsm/internal/hashutil"
)

// randomLeaves returns n distinct leaf hashes drawn from rng, so that two
// trees never share a root by accident.
func randomLeaves(rng *rand.Rand, n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		rng.Read(leaves[i][:])
	}
	return leaves
}

// decodeSteps turns an AppendPath encoding back into the []PathNode form
// the cacheless VerifyPath takes, any side byte but 1 reading as "right".
func decodeSteps(steps []byte) []PathNode {
	var path []PathNode
	for ; len(steps) >= PathNodeSize; steps = steps[PathNodeSize:] {
		var pn PathNode
		pn.Left = steps[0] == 1
		copy(pn.Hash[:], steps[1:PathNodeSize])
		path = append(path, pn)
	}
	return path
}

// slotsImage copies the cache's table for a before/after comparison.
func slotsImage(c *NodeCache) []nodeSlot { return append([]nodeSlot(nil), c.slots...) }

func TestNodeCacheBudget(t *testing.T) {
	if got := int(reflect.TypeOf(nodeSlot{}).Size()) * len(NewNodeCache().slots); got != NodeCacheBytes {
		t.Fatalf("table is %d bytes, NodeCacheBytes says %d", got, NodeCacheBytes)
	}
	if NodeCacheBytes > 2<<20 {
		t.Fatalf("node cache budget %d exceeds 2 MiB", NodeCacheBytes)
	}
}

// TestCachedWalkerMatchesVerifyPath is the differential property: over
// random trees (1…5000 leaves, so odd widths and promoted nodes at every
// level) queried in random order against ONE cache shared by all of them,
// cold and then warm, the cached walker accepts and rejects exactly what
// the cacheless VerifyPath does — honest paths, wrong leaves, wrong
// indexes, wrong leaf counts, wrong roots, truncated and over-long paths,
// flipped side bits. The one place the two may differ is a flipped sibling
// HASH: the cached walker does not read the steps above the cached node it
// stopped at, so it accepts such a path exactly when the flipped step was
// never consumed, and must reject it whenever it was.
func TestCachedWalkerMatchesVerifyPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cache := NewNodeCache()
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 33, 1023, 1025, 4999, 5000}
	for len(sizes) < 40 {
		sizes = append(sizes, 1+rng.Intn(5000))
	}
	const (
		honest = iota
		wrongLeaf
		wrongIndex
		wrongCount
		wrongRoot
		truncated
		overLong
		flippedSide
		flippedSibling
		mutations
	)
	for _, n := range sizes {
		leaves := randomLeaves(rng, n)
		tree := New(leaves)
		for q := 0; q < 300; q++ {
			i := rng.Intn(n)
			leaf, index, count, root := leaves[i], i, n, tree.Root()
			steps := tree.AppendPath(nil, i)
			flipped := -1 // step whose sibling hash was flipped
			mut := rng.Intn(mutations)
			switch mut {
			case wrongLeaf:
				leaf[rng.Intn(hashutil.Size)] ^= 1
			case wrongIndex:
				index = rng.Intn(n + 1)
			case wrongCount:
				count = n + rng.Intn(3) - 1
			case wrongRoot:
				root[rng.Intn(hashutil.Size)] ^= 1
			case truncated:
				if len(steps) > 0 {
					steps = steps[:len(steps)-1-rng.Intn(PathNodeSize)]
				}
			case overLong:
				steps = append(steps, steps[:min(len(steps), 1+rng.Intn(PathNodeSize))]...)
			case flippedSide:
				if len(steps) > 0 {
					steps[rng.Intn(len(steps)/PathNodeSize)*PathNodeSize] ^= 1
				}
			case flippedSibling:
				if len(steps) > 0 {
					flipped = rng.Intn(len(steps) / PathNodeSize)
					steps[flipped*PathNodeSize+1+rng.Intn(hashutil.Size)] ^= 1
				}
			}
			want := VerifyPath(leaf, index, count, decodeSteps(steps), root)
			if len(steps)%PathNodeSize != 0 {
				want = ErrBadPath // the []PathNode form cannot even express a ragged path
			}
			walk, got := cache.VerifyPath(leaf, index, count, steps, root)
			switch {
			case flipped >= 0 && got == nil:
				if flipped < walk.Hashes {
					t.Fatalf("n=%d leaf %d: accepted a flipped sibling at consumed step %d of %d", n, i, flipped, walk.Hashes)
				}
			case (want == nil) != (got == nil):
				t.Fatalf("n=%d leaf %d mutation %d: VerifyPath says %v, cached walker says %v", n, i, mut, want, got)
			case want != nil && !errors.Is(got, ErrBadIndex) && !errors.Is(got, ErrBadPath) && !errors.Is(got, ErrRootMismatch):
				t.Fatalf("n=%d leaf %d mutation %d: unclassified error %v", n, i, mut, got)
			}
		}
	}
}

// TestFlippedSiblingBelowCachedAncestor pins the case the differential
// test only samples: leaf j shares its level-L ancestor with an
// already-verified leaf i and nothing below it. Walking j must stop at that
// ancestor (a cache hit, unless the ancestor is the trusted root itself, which
// needs no entry); a sibling flipped at ANY level below it is consumed, so it must
// be rejected, must leave the cache byte-identical, and must not stop the
// honest walk that follows from being accepted.
func TestFlippedSiblingBelowCachedAncestor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 6, 37, 1000, 4097} {
		leaves := randomLeaves(rng, n)
		tree := New(leaves)
		for level := 1; 1<<(level-1) < n; level++ {
			cache := NewNodeCache()
			i := rng.Intn(n)
			j := i ^ 1<<(level-1) // differs from i first at bit level-1: they meet at level `level`
			if j >= n {
				continue
			}
			if _, err := cache.VerifyPath(leaves[i], i, n, tree.AppendPath(nil, i), tree.Root()); err != nil {
				t.Fatal(err)
			}
			honest := tree.AppendPath(nil, j)
			below := 0 // steps of j's path below the shared ancestor
			width := n // of the ancestor's level; 1 when the ancestor is the root itself
			for l, idx := 0, j; l < level; l, idx, width = l+1, idx/2, (width+1)/2 {
				if idx%2 == 1 || idx+1 < width {
					below++
				}
			}
			before := slotsImage(cache)
			for s := 0; s < below; s++ {
				forged := append([]byte(nil), honest...)
				forged[s*PathNodeSize+1+rng.Intn(hashutil.Size)] ^= 0x80
				if _, err := cache.VerifyPath(leaves[j], j, n, forged, tree.Root()); !errors.Is(err, ErrRootMismatch) {
					t.Fatalf("n=%d level %d: sibling flipped at step %d below the cached ancestor: %v", n, level, s, err)
				}
			}
			if !slices.Equal(before, cache.slots) {
				t.Fatalf("n=%d level %d: failed verifications changed the cache", n, level)
			}
			walk, err := cache.VerifyPath(leaves[j], j, n, honest, tree.Root())
			if err != nil || walk.CacheHit != (width > 1) || walk.Hashes != below {
				t.Fatalf("n=%d level %d: honest walk after the forgeries = %+v, %v; want to stop at the ancestor after %d hashes", n, level, walk, err, below)
			}
			// Now j is verified down to its leaf: the next walk hashes nothing.
			if walk, err = cache.VerifyPath(leaves[j], j, n, honest, tree.Root()); err != nil || !walk.CacheHit || walk.Hashes != 0 {
				t.Fatalf("n=%d level %d: warm walk = %+v, %v", n, level, walk, err)
			}
		}
	}
}

// TestNodeCacheTreesDoNotMix: two trees that hold the same leaf at the same
// index — two runs holding the same key — have different roots, so neither
// can be satisfied, or refuted, by the other's entries.
func TestNodeCacheTreesDoNotMix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, i = 500, 123
	a := randomLeaves(rng, n)
	b := append([]Hash(nil), a...)
	b[n-1][0] ^= 1 // same leaves but the last: every path differs only near the top
	ta, tb := New(a), New(b)
	cache := NewNodeCache()
	if _, err := cache.VerifyPath(a[i], i, n, ta.AppendPath(nil, i), ta.Root()); err != nil {
		t.Fatal(err)
	}
	// Tree a's path for the shared leaf does not verify under b's root …
	if _, err := cache.VerifyPath(b[i], i, n, ta.AppendPath(nil, i), tb.Root()); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("path of another tree accepted: %v", err)
	}
	// … and b's own path is walked in full: a's entries, leaf level
	// included, are not b's.
	walk, err := cache.VerifyPath(b[i], i, n, tb.AppendPath(nil, i), tb.Root())
	if err != nil || walk.CacheHit || walk.Hashes != PathLen(i, n) {
		t.Fatalf("walk under the second root = %+v, %v; want a full cold walk", walk, err)
	}
	// a's entries survived b's.
	if walk, err = cache.VerifyPath(a[i], i, n, ta.AppendPath(nil, i), ta.Root()); err != nil || walk.Hashes != 0 {
		t.Fatalf("first tree after the second = %+v, %v", walk, err)
	}
}

// TestNodeCacheConcurrent hammers one cache from several goroutines with
// honest and forged paths of two trees; run under -race.
func TestNodeCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 3000
	trees := []*Tree{New(randomLeaves(rng, n)), New(randomLeaves(rng, n))}
	cache := NewNodeCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 4000; q++ {
				tree := trees[rng.Intn(len(trees))]
				i := rng.Intn(n)
				steps := tree.AppendPath(nil, i)
				leaf := tree.Leaf(i)
				forge := rng.Intn(4) == 0
				if forge {
					leaf[0] ^= 1
				}
				if _, err := cache.VerifyPath(leaf, i, n, steps, tree.Root()); (err != nil) != forge {
					t.Errorf("leaf %d forged=%v: %v", i, forge, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func BenchmarkCachedVerifyPath(b *testing.B) {
	const n = 50000
	tree := New(leafSet(n))
	paths := make([][]byte, 1<<12)
	for i := range paths {
		paths[i] = tree.AppendPath(nil, i*11%n)
	}
	for _, warm := range []bool{false, true} {
		name := "nil-cache"
		var cache *NodeCache
		if warm {
			name, cache = "warm", NewNodeCache()
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % len(paths)
				if _, err := cache.VerifyPath(tree.Leaf(k*11%n), k*11%n, n, paths[k], tree.Root()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
