// Package merkle implements the Merkle hash trees that digest each LSM-tree
// level in eLSM (§5.2): full binary trees over ordered leaf hashes with
// membership proofs (authentication paths), index-carrying verification that
// supports adjacency (non-membership) checks, contiguous range proofs for
// query completeness (§5.4, the segment-tree view), and the group sections
// that let one SSTable block store the paths of all its records at once.
//
// The tree promotes a lone trailing node to the next level (no duplication),
// so every leaf's authentication path is uniquely determined by (index,
// numLeaves) — verifiers can check structural claims, not just hashes.
package merkle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"elsm/internal/hashutil"
)

// Hash re-exports the digest type for convenience.
type Hash = hashutil.Hash

// PathNode is one step of an authentication path: the sibling hash and its
// side (Left reports whether the sibling is the left child).
type PathNode struct {
	Hash Hash
	Left bool
}

// Tree is a Merkle tree over an ordered leaf set, immutable once built.
type Tree struct {
	// levels[0] is the leaf level; levels[len-1] is the single root.
	levels [][]Hash
}

// New builds a tree over the given leaf hashes. An empty leaf set yields a
// tree whose root is the zero hash (the digest of an empty level).
func New(leaves []Hash) *Tree {
	nodes := make([]Hash, len(leaves), NodeCount(len(leaves)))
	copy(nodes, leaves)
	t := new(Tree)
	t.Build(nodes)
	return t
}

// NodeCount returns the number of nodes, every level counted, of a tree over
// n leaves: the capacity Build hashes the upper levels into.
func NodeCount(n int) int {
	total := n
	for w := n; w > 1; {
		w = (w + 1) / 2
		total += w
	}
	return total
}

// Build makes t the tree over the leaves nodes[:len(nodes)], hashing the
// upper levels in place into nodes' spare capacity — grown if it is short
// of NodeCount(len(nodes)) — and returns nodes over the array t now reads.
// t reuses its level table; a caller that keeps the array for another
// Build must be done with t first.
func (t *Tree) Build(nodes []Hash) []Hash {
	n := len(nodes)
	nodes = slices.Grow(nodes, NodeCount(n)-n)
	t.levels = t.levels[:0]
	if n == 0 {
		return nodes
	}
	cur, rest := nodes[:n:n], nodes[n:cap(nodes)]
	t.levels = append(t.levels, cur)
	for len(cur) > 1 {
		w := (len(cur) + 1) / 2
		next := rest[:w:w]
		rest = rest[w:]
		for i := 0; i+1 < len(cur); i += 2 {
			next[i/2] = hashutil.NodeHash(cur[i], cur[i+1])
		}
		if len(cur)%2 == 1 {
			next[w-1] = cur[len(cur)-1] // promote the lone trailing node
		}
		t.levels = append(t.levels, next)
		cur = next
	}
	return nodes
}

// RootBuilder computes the root and leaf count New would give a leaf
// sequence, from the leaves one at a time, keeping one pending node per
// level instead of the tree: nothing is allocated. For callers that only
// need a run's digest (authenticated compaction's input check). The zero
// value is an empty builder.
type RootBuilder struct {
	n       int
	pending [64]Hash // pending[l] is level l's unpaired left node, if bit l of n is set
}

// Add appends the next leaf.
func (b *RootBuilder) Add(leaf Hash) {
	h := leaf
	l := 0
	for ; b.n>>l&1 == 1; l++ { // a left sibling waits at this level: pair up
		h = hashutil.NodeHash(b.pending[l], h)
	}
	b.pending[l] = h
	b.n++
}

// NumLeaves returns the number of leaves added.
func (b *RootBuilder) NumLeaves() int { return b.n }

// Root returns the root over the leaves added so far (zero for none). Each
// level's unpaired node is its lone trailing node: it pairs with the node
// promoted from below if there is one, and is promoted itself otherwise.
func (b *RootBuilder) Root() Hash {
	var h Hash
	have := false
	for l := 0; b.n>>l != 0; l++ {
		switch {
		case b.n>>l&1 == 0:
		case have:
			h = hashutil.NodeHash(b.pending[l], h)
		default:
			h, have = b.pending[l], true
		}
	}
	return h
}

// Root returns the root hash (zero for an empty tree).
func (t *Tree) Root() Hash {
	if len(t.levels) == 0 {
		return hashutil.Zero
	}
	return t.levels[len(t.levels)-1][0]
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// Leaf returns the i-th leaf hash.
func (t *Tree) Leaf(i int) Hash { return t.levels[0][i] }

// Path returns the authentication path of leaf i: sibling hashes bottom-up,
// skipping levels where the node is promoted.
func (t *Tree) Path(i int) []PathNode {
	if i < 0 || len(t.levels) == 0 || i >= len(t.levels[0]) {
		panic(fmt.Sprintf("merkle: leaf index %d out of range", i))
	}
	var path []PathNode
	idx := i
	for l := 0; l < len(t.levels)-1; l++ {
		level := t.levels[l]
		switch {
		case idx%2 == 0 && idx+1 < len(level):
			path = append(path, PathNode{Hash: level[idx+1], Left: false})
		case idx%2 == 1:
			path = append(path, PathNode{Hash: level[idx-1], Left: true})
		default:
			// Lone trailing node: promoted, no sibling at this level.
		}
		idx /= 2
	}
	return path
}

// PathNodeSize is the encoded size of one authentication-path step as
// AppendPath writes it.
const PathNodeSize = 1 + hashutil.Size

// PathLen returns the number of steps in the authentication path of leaf
// index in a tree of numLeaves leaves — one per level where the node has a
// sibling. It is what Path returns the length of, computed without a tree:
// below the level where index's ancestor becomes its level's last node, every
// node has a right or a left sibling; from there up the ancestor is the last
// node, with a (left) sibling exactly when it is odd.
func PathLen(index, numLeaves int) int {
	last := uint(numLeaves - 1)
	below := bits.Len(uint(index) ^ last)
	return below + bits.OnesCount(last>>below)
}

// AppendPath appends the authentication path of leaf i to dst, bottom-up,
// each step as a side byte (1 when the sibling is the left child, else 0)
// followed by the sibling hash: PathLen(i, NumLeaves()) × PathNodeSize
// bytes, the same steps Path returns, with no intermediate slice.
func (t *Tree) AppendPath(dst []byte, i int) []byte {
	if i < 0 || len(t.levels) == 0 || i >= len(t.levels[0]) {
		panic(fmt.Sprintf("merkle: leaf index %d out of range", i))
	}
	return t.appendPath(dst, 0, i)
}

// appendPath appends the authentication path of node i of level l, in
// AppendPath's encoding.
func (t *Tree) appendPath(dst []byte, l, i int) []byte {
	for _, level := range t.levels[l : len(t.levels)-1] {
		switch {
		case i%2 == 1:
			dst = append(dst, 1)
			dst = append(dst, level[i-1][:]...)
		case i+1 < len(level):
			dst = append(dst, 0)
			dst = append(dst, level[i+1][:]...)
		}
		i /= 2
	}
	return dst
}

// Group sections. A group is the aligned run of up to 2^k leaves under node
// (k, g) — leaves g·2^k to (g+1)·2^k−1, fewer in the last group — and its
// section is what an SSTable block of the group stores of the tree instead of
// a path per record:
//
//	k u8 ‖ uvarint numLeaves ‖ uvarint first ‖ nodes ‖ upper
//
// first is the leaf index of the block's first record. nodes is every node of
// the group's subtree below its root, hashutil.Size bytes each, level by level
// from the leaves and left to right within a level: level l contributes nodes
// g·2^(k−l) onward, as many of 2^(k−l) as the level is wide. upper is the
// authentication path of the group's root, node (k, g), in AppendPath's
// encoding. A leaf's path is then its siblings among nodes followed by upper,
// byte for byte what AppendPath gives. The header fixes the section's length,
// so a section is either exactly the one its header describes or malformed.

// ErrBadSection reports a group section whose header and length disagree.
var ErrBadSection = errors.New("merkle: malformed group section")

// maxSectionLeaves bounds the leaf count a section may claim: a proof's leaf
// index is a uint32.
const maxSectionLeaves = 1 << 32

// groupLevel returns where level l < k of group g's subtree starts (its first
// node's index in the level) and how many nodes it has, in a tree of n leaves.
func groupLevel(k, n, g, l int) (lo, count int) {
	lo = g << (k - l)
	width := (n-1)>>l + 1
	return lo, min(1<<(k-l), width-lo)
}

// groupNodes returns the number of nodes section stores for group g.
func groupNodes(k, n, g int) int {
	total := 0
	for l := 0; l < k; l++ {
		_, c := groupLevel(k, n, g, l)
		total += c
	}
	return total
}

// upperSteps returns the number of steps of node (k, g)'s authentication
// path: the levels from k up form a tree of ⌈n/2^k⌉ leaves.
func upperSteps(k, n, g int) int { return PathLen(g, (n-1)>>k+1) }

// SectionLen returns the encoded length of the section for a block whose
// first record is leaf first, in groups of 2^k leaves of a tree of numLeaves
// leaves; k ≤ the tree's height.
func SectionLen(k, numLeaves, first int) int {
	g := first >> k
	return 1 + uvarintLen(numLeaves) + uvarintLen(first) +
		groupNodes(k, numLeaves, g)*hashutil.Size + upperSteps(k, numLeaves, g)*PathNodeSize
}

func uvarintLen(v int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(v))
}

// Height returns the height of a tree of numLeaves leaves: the largest useful
// group size exponent, whose one group is the whole tree.
func Height(numLeaves int) int { return bits.Len(uint(numLeaves - 1)) }

// AppendSection appends the section of the group of 2^k leaves holding leaf
// first, for a block whose first record is that leaf.
func (t *Tree) AppendSection(dst []byte, k, first int) []byte {
	n := t.NumLeaves()
	if first < 0 || first >= n || k < 0 || k > Height(n) {
		panic(fmt.Sprintf("merkle: section of leaf %d in groups of 2^%d, %d leaves", first, k, n))
	}
	g := first >> k
	dst = append(dst, byte(k))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(first))
	for l := 0; l < k; l++ {
		lo, count := groupLevel(k, n, g, l)
		for _, h := range t.levels[l][lo : lo+count] {
			dst = append(dst, h[:]...)
		}
	}
	return t.appendPath(dst, k, g)
}

// Section is a group section parsed in place: its slices alias the bytes it
// was parsed from.
type Section struct {
	k, numLeaves, first int
	nodes, upper        []byte
}

// ParseSection parses a section, checking that its length is the one its
// header dictates before anything is sliced.
func ParseSection(b []byte) (Section, error) {
	var s Section
	if len(b) == 0 {
		return s, ErrBadSection
	}
	n, w := binary.Uvarint(b[1:])
	if w <= 0 || n == 0 || n > maxSectionLeaves {
		return s, ErrBadSection
	}
	first, w2 := binary.Uvarint(b[1+w:])
	if w2 <= 0 || first >= n || int(b[0]) > Height(int(n)) {
		return s, ErrBadSection
	}
	s.k, s.numLeaves, s.first = int(b[0]), int(n), int(first)
	g := s.first >> s.k
	rest := b[1+w+w2:]
	nodes := groupNodes(s.k, s.numLeaves, g) * hashutil.Size
	if len(rest) != nodes+upperSteps(s.k, s.numLeaves, g)*PathNodeSize {
		return s, ErrBadSection
	}
	s.nodes, s.upper = rest[:nodes], rest[nodes:]
	return s, nil
}

// First returns the leaf index of the first record of the section's block.
func (s *Section) First() int { return s.first }

// PathLen returns the number of steps of leaf's authentication path, or -1
// if leaf does not lie in the section's group at or after its first leaf.
func (s *Section) PathLen(leaf int) int {
	if !s.holds(leaf) {
		return -1
	}
	return PathLen(leaf, s.numLeaves)
}

// holds reports that leaf lies in the section's group at or after its first.
func (s *Section) holds(leaf int) bool {
	return leaf >= s.first && leaf < s.numLeaves && leaf>>s.k == s.first>>s.k
}

// AppendPath appends the authentication path of leaf, one PathLen accepts:
// the bytes Tree.AppendPath gives for the tree the section was cut from. For
// any other leaf it appends nothing.
func (s *Section) AppendPath(dst []byte, leaf int) []byte {
	if !s.holds(leaf) {
		return dst
	}
	g := s.first >> s.k
	base := 0 // index in nodes of the current level's first node
	for l := 0; l < s.k; l++ {
		lo, count := groupLevel(s.k, s.numLeaves, g, l)
		i, width := leaf>>l, (s.numLeaves-1)>>l+1
		sib := -1
		switch {
		case i%2 == 1:
			sib = i - 1
		case i+1 < width:
			sib = i + 1
		}
		if sib >= 0 {
			at := (base + sib - lo) * hashutil.Size
			dst = append(dst, byte(i%2))
			dst = append(dst, s.nodes[at:at+hashutil.Size]...)
		}
		base += count
	}
	return append(dst, s.upper...)
}

// Proof-verification errors.
var (
	ErrBadIndex     = errors.New("merkle: leaf index out of range")
	ErrBadPath      = errors.New("merkle: authentication path has wrong shape")
	ErrRootMismatch = errors.New("merkle: recomputed root does not match")
)

// VerifyPath checks that leaf sits at position index in a tree of numLeaves
// leaves with the given root. The (index, numLeaves) pair fully determines
// the path shape, so a prover cannot lie about a leaf's position — which is
// what makes adjacency-based non-membership proofs sound. It is the path
// walker of NodeCache.VerifyPath run without a cache.
func VerifyPath(leaf Hash, index, numLeaves int, path []PathNode, root Hash) error {
	var buf [maxPathLen * PathNodeSize]byte
	if len(path) > maxPathLen {
		return fmt.Errorf("%w: %d steps", ErrBadPath, len(path))
	}
	steps := buf[:0]
	for _, pn := range path {
		side := byte(0)
		if pn.Left {
			side = 1
		}
		steps = append(append(steps, side), pn.Hash[:]...)
	}
	_, err := (*NodeCache)(nil).VerifyPath(leaf, index, numLeaves, steps, root)
	return err
}

// maxPathLen bounds an authentication path: one step per level, and an int
// leaf count has fewer than 64 levels.
const maxPathLen = 64

// PathWalk reports the work one path verification did.
type PathWalk struct {
	// Hashes is the number of interior node hashes computed.
	Hashes int
	// CacheHit reports that the walk ended at a cached, already-verified
	// node instead of the root.
	CacheHit bool
}

// VerifyPath is the path walker: it checks that leaf sits at position index
// in the tree of numLeaves leaves with the trusted root, given the leaf's
// authentication path as AppendPath encodes it (steps). c may be nil, which
// walks every path to the root.
//
// The shape is checked first and in full, cache or no cache: steps must hold
// exactly the PathLen(index, numLeaves) steps, and every side byte must be
// the one (index, numLeaves) dictates. Then the hashes are folded bottom-up. At
// every level, the leaf level included, the cache is asked for the node at
// that position under this root. A cached hash equal to the computed one
// ends the walk: the cached node was verified under the same root, so by
// collision resistance the computed subtree is the tree's. A cached hash
// that differs is a forgery (ErrRootMismatch — the root could not match
// either). The nodes computed on the way are inserted only after the walk
// has reached the root or an equal cached node; a failed walk inserts
// nothing.
func (c *NodeCache) VerifyPath(leaf Hash, index, numLeaves int, steps []byte, root Hash) (PathWalk, error) {
	var walk PathWalk
	if err := checkPathShape(index, numLeaves, steps); err != nil {
		return walk, err
	}

	if uint64(numLeaves) > maxCachedLeaves {
		c = nil
	}
	var nodes [maxPathLen]Hash // nodes[l] is the node computed at level l, not yet in the cache
	h, level := leaf, 0
	for idx, n := uint(index), uint(numLeaves); n > 1; idx, n, level = idx>>1, (n+1)>>1, level+1 {
		if c != nil {
			if cached, ok := c.get(&root, level, idx); ok {
				if cached != h {
					return walk, ErrRootMismatch
				}
				walk.CacheHit = true
				break
			}
			nodes[level] = h
		}
		if idx&1 == 1 || idx+1 < n {
			sib := Hash(steps[1:PathNodeSize])
			if idx&1 == 1 {
				h = hashutil.NodeHash(sib, h)
			} else {
				h = hashutil.NodeHash(h, sib)
			}
			steps = steps[PathNodeSize:]
			walk.Hashes++
		}
	}
	if !walk.CacheHit && h != root {
		return walk, ErrRootMismatch
	}
	if c != nil {
		for l := 0; l < level; l++ {
			c.put(&root, l, uint(index)>>l, &nodes[l])
		}
	}
	return walk, nil
}

// checkPathShape checks that steps holds exactly the PathLen(index,
// numLeaves) steps of leaf index's authentication path, every side byte the
// one (index, numLeaves) dictates.
func checkPathShape(index, numLeaves int, steps []byte) error {
	if numLeaves <= 0 || index < 0 || index >= numLeaves {
		return ErrBadIndex
	}
	p := 0
	for idx, n := uint(index), uint(numLeaves); n > 1; idx, n = idx>>1, (n+1)>>1 {
		if idx&1 == 0 && idx+1 >= n {
			continue // promoted node: no sibling at this level
		}
		if p >= len(steps) || steps[p] != byte(idx&1) {
			return fmt.Errorf("%w: no step or wrong sibling side at width %d", ErrBadPath, n)
		}
		p += PathNodeSize
	}
	if p != len(steps) {
		return fmt.Errorf("%w: %d bytes for %d steps", ErrBadPath, len(steps), p/PathNodeSize)
	}
	return nil
}

// VerifyRange is the range walker: it checks that leaves occupy positions
// [start, start+len(leaves)-1] of the tree of numLeaves leaves with the
// trusted root, given the authentication paths of the first and the last of
// them as AppendPath encodes them — the two boundary paths are the whole
// range proof (§5.4). It allocates nothing: the span is folded in place, so
// leaves is overwritten. c may be nil.
//
// Both paths are shape-checked first and in full, as VerifyPath does. Then the
// span is folded level by level: a span that starts at an odd position takes
// its left neighbour from first's step at that level, one that ends at an even
// position with a node to its right takes that from last's, every other node
// is computed from the presented leaves. Once the span is a single node the
// walk IS a path walk and follows VerifyPath's cache rules from that node up:
// an equal cached node ends it, a different one is ErrRootMismatch, and the
// nodes computed from there on are inserted only after success. A cached node
// equal to the collapsed span authenticates everything folded into it — the
// leaves and the boundary siblings below it — by collision resistance, as it
// does for a single leaf. Left siblings are read from first and right
// siblings from last at every level, which is what the reference VerifyRange
// is handed (EmbeddedProof.LeftSiblings, RightSiblings).
func (c *NodeCache) VerifyRange(leaves []Hash, start, numLeaves int, first, last []byte, root Hash) (PathWalk, error) {
	var walk PathWalk
	if len(leaves) == 0 || start < 0 || numLeaves <= 0 || len(leaves) > numLeaves-start {
		return walk, ErrBadIndex
	}
	end := start + len(leaves) - 1
	if err := checkPathShape(start, numLeaves, first); err != nil {
		return walk, err
	}
	if err := checkPathShape(end, numLeaves, last); err != nil {
		return walk, err
	}
	if uint64(numLeaves) > maxCachedLeaves {
		c = nil
	}

	// Span phase: more than one node wide. lo < hi < n, so lo always has a
	// sibling (first steps once per level); hi has one unless it is the
	// promoted tail.
	lo, hi, n, level := uint(start), uint(end), uint(numLeaves), 0
	span := leaves
	for ; lo < hi; lo, hi, n, level = lo>>1, hi>>1, (n+1)>>1, level+1 {
		r, w := 0, 0
		if lo&1 == 1 {
			span[0] = hashutil.NodeHash(Hash(first[1:PathNodeSize]), span[0])
			r, w = 1, 1
			walk.Hashes++
		}
		first = first[PathNodeSize:]
		for ; r+1 < len(span); r, w = r+2, w+1 {
			span[w] = hashutil.NodeHash(span[r], span[r+1])
			walk.Hashes++
		}
		if r < len(span) { // hi is even: pair it with last's right sibling, or promote it
			if hi+1 < n {
				span[w] = hashutil.NodeHash(span[r], Hash(last[1:PathNodeSize]))
				walk.Hashes++
			} else {
				span[w] = span[r]
			}
			w++
		}
		if hi&1 == 1 || hi+1 < n {
			last = last[PathNodeSize:]
		}
		span = span[:w]
	}

	// Path phase: VerifyPath from the node the span collapsed to.
	var nodes [maxPathLen]Hash // nodes[l] is the node computed at level l, not yet in the cache
	h, bottom := span[0], level
	for ; n > 1; lo, n, level = lo>>1, (n+1)>>1, level+1 {
		if c != nil {
			if cached, ok := c.get(&root, level, lo); ok {
				if cached != h {
					return walk, ErrRootMismatch
				}
				walk.CacheHit = true
				break
			}
			nodes[level] = h
		}
		if lo&1 == 1 || lo+1 < n {
			if lo&1 == 1 {
				h = hashutil.NodeHash(Hash(first[1:PathNodeSize]), h)
			} else {
				h = hashutil.NodeHash(h, Hash(last[1:PathNodeSize]))
			}
			first, last = first[PathNodeSize:], last[PathNodeSize:]
			walk.Hashes++
		}
	}
	if !walk.CacheHit && h != root {
		return walk, ErrRootMismatch
	}
	if c != nil {
		for l := bottom; l < level; l++ {
			c.put(&root, l, uint(end)>>l, &nodes[l])
		}
	}
	return walk, nil
}

// NodeCache remembers Merkle nodes that a path walk has already verified
// under a trusted root, so later walks under the same root stop at the first
// node they share. It is trusted state: it belongs inside the enclave, and
// only VerifyPath and VerifyRange write it, after a successful verification.
//
// An entry says "in the tree with root R, the node at (level, index) hashes
// to H" — a fact about R alone, keyed by R itself and not by anything the
// host supplies. Trees are immutable, so an entry can never become false:
// there is no invalidation, and the entries of a retired run simply age out
// as others overwrite them.
//
// The table is direct-mapped and of fixed size; lookups and inserts
// allocate nothing and take one of nodeCacheStripes locks, never a
// table-wide one. Safe for concurrent use.
type NodeCache struct {
	locks [nodeCacheStripes]sync.Mutex
	slots []nodeSlot // slot i is guarded by locks[i%nodeCacheStripes]
}

// nodeSlot is one entry. pos packs (level, index) with the top bit set, so
// the zero slot matches no lookup; maxCachedLeaves keeps index clear of the
// level bits.
type nodeSlot struct {
	root Hash
	pos  uint64
	hash Hash
}

const (
	nodeSlotSize     = 2*hashutil.Size + 8
	nodeCacheStripes = 64
	maxCachedLeaves  = 1 << 48

	// NodeCacheBytes is the fixed size of a NodeCache's table — the most
	// whole slots that fit in 2 MiB — for the owner's enclave-memory
	// accounting.
	NodeCacheBytes = (2 << 20) / nodeSlotSize * nodeSlotSize
)

// NewNodeCache allocates an empty cache of NodeCacheBytes bytes.
func NewNodeCache() *NodeCache {
	return &NodeCache{slots: make([]nodeSlot, NodeCacheBytes/nodeSlotSize)}
}

// slot locates the entry for a node. The root is hash output, so its first
// word is already uniform; a Fibonacci multiply mixes the position in, and
// the high half of a second multiply maps the result onto the table.
func (c *NodeCache) slot(root *Hash, level int, idx uint) (*nodeSlot, *sync.Mutex, uint64) {
	pos := 1<<63 | uint64(level)<<48 | uint64(idx)
	x := (binary.LittleEndian.Uint64(root[:8]) ^ pos) * 0x9e3779b97f4a7c15
	i, _ := bits.Mul64(x, uint64(len(c.slots)))
	return &c.slots[i], &c.locks[i%nodeCacheStripes], pos
}

func (c *NodeCache) get(root *Hash, level int, idx uint) (h Hash, ok bool) {
	s, mu, pos := c.slot(root, level, idx)
	mu.Lock()
	if ok = s.pos == pos && s.root == *root; ok {
		h = s.hash
	}
	mu.Unlock()
	return h, ok
}

func (c *NodeCache) put(root *Hash, level int, idx uint, h *Hash) {
	s, mu, pos := c.slot(root, level, idx)
	mu.Lock()
	s.root, s.pos, s.hash = *root, pos, *h
	mu.Unlock()
}

// RangeProof authenticates that a contiguous run of leaves
// [Start, Start+len(leaves)-1] belongs to the tree. The proof carries only
// the boundary siblings (the segment-tree cover of §5.4); interior hashes
// are recomputed from the presented leaves.
type RangeProof struct {
	// Start is the index of the first presented leaf.
	Start int
	// Left and Right hold sibling hashes consumed bottom-up on the left
	// and right boundaries of the folded span.
	Left  []Hash
	Right []Hash
}

// RangeProofFor builds the proof for leaves [start, end] (inclusive).
func (t *Tree) RangeProofFor(start, end int) (*RangeProof, error) {
	n := t.NumLeaves()
	if start < 0 || end < start || end >= n {
		return nil, fmt.Errorf("%w: [%d,%d] of %d leaves", ErrBadIndex, start, end, n)
	}
	p := &RangeProof{Start: start}
	lo, hi := start, end
	for l := 0; l < len(t.levels)-1; l++ {
		level := t.levels[l]
		if lo%2 == 1 {
			p.Left = append(p.Left, level[lo-1])
		}
		if hi%2 == 0 && hi+1 < len(level) {
			p.Right = append(p.Right, level[hi+1])
		}
		lo /= 2
		hi /= 2
	}
	return p, nil
}

// VerifyRange checks that the presented leaves occupy positions
// [proof.Start, proof.Start+len(leaves)-1] in a tree with the given root and
// numLeaves. Completeness follows: a verifier that also checks the boundary
// keys (done by the caller, which knows the leaf contents) learns that no
// leaf inside the span was withheld. It is the reference the range walker
// (NodeCache.VerifyRange, what verified scans run) is tested against.
func VerifyRange(leaves []Hash, numLeaves int, proof *RangeProof, root Hash) error {
	if len(leaves) == 0 {
		return fmt.Errorf("%w: empty range", ErrBadIndex)
	}
	if proof == nil {
		return fmt.Errorf("%w: nil proof", ErrBadPath)
	}
	start := proof.Start
	end := start + len(leaves) - 1
	if start < 0 || end >= numLeaves {
		return ErrBadIndex
	}
	span := make([]Hash, len(leaves))
	copy(span, leaves)
	lo, hi := start, end
	n := numLeaves
	li, ri := 0, 0
	for n > 1 {
		// Extend the span with boundary siblings as needed so it starts at
		// an even index and ends at an odd index (or the promoted tail).
		if lo%2 == 1 {
			if li >= len(proof.Left) {
				return fmt.Errorf("%w: missing left sibling", ErrBadPath)
			}
			span = append([]Hash{proof.Left[li]}, span...)
			li++
			lo--
		}
		if hi%2 == 0 && hi+1 < n {
			if ri >= len(proof.Right) {
				return fmt.Errorf("%w: missing right sibling", ErrBadPath)
			}
			span = append(span, proof.Right[ri])
			ri++
			hi++
		}
		// Fold pairs.
		next := make([]Hash, 0, (len(span)+1)/2)
		for i := 0; i < len(span); i += 2 {
			if i+1 < len(span) {
				next = append(next, hashutil.NodeHash(span[i], span[i+1]))
			} else {
				// Promoted trailing node (hi == n-1 with even index).
				next = append(next, span[i])
			}
		}
		span = next
		lo /= 2
		hi /= 2
		n = (n + 1) / 2
	}
	if li != len(proof.Left) || ri != len(proof.Right) {
		return fmt.Errorf("%w: unused proof hashes", ErrBadPath)
	}
	if len(span) != 1 || span[0] != root {
		return ErrRootMismatch
	}
	return nil
}
