package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"elsm/internal/bloom"
	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// runDigest is the trusted per-run state kept inside the enclave: the
// Merkle root over the run's distinct keys, the leaf count (needed to
// validate path shapes and adjacency claims), the level the run is at, and
// the hash of the run's key filter (hashutil.FilterHash; zero for a run with
// none, or sealed by a build that stored none). A run changes level only by
// a relabel, which moves it one level down and seals nothing else new
// (relabeled); within a level a newer run has a larger ID, so the level and
// the IDs fix the order a read visits the runs in — the order that decides
// which version of a key is newest. The filter is a function of the keys the
// root binds, so the state fingerprint leaves its hash out.
type runDigest struct {
	Root      hashutil.Hash `json:"root"`
	NumLeaves int           `json:"leaves"`
	Level     int           `json:"level"`
	Filter    hashutil.Hash `json:"filter"`
}

// compactionHasher digests one job's merge stream, once, into every eLSM
// per-run Merkle tree the job needs (§5.5.2): the reconstruction of each
// input run (checked against its trusted digest before install) and the
// output run's tree, whose per-record proofs are embedded in the output
// files. Same-key versions fold into a hash chain (oldest innermost), each
// chain becomes one leaf, the leaves form a binary tree.
//
// Records arrive in engine order — key ascending, timestamp descending — so
// a key's versions arrive newest first and are buffered until the key
// changes. Each record is digested once, whichever trees it belongs to. When
// the versions a key keeps are exactly the versions one input run
// contributed (nothing dropped, nothing merged in), the output chain has the
// same links as that run's chain: the reconstructed input leaf and its
// inner values are the output's and are reused, not recomputed. The hasher
// decides that from the stream it digested, never from a host claim.
//
// A job whose stream the engine cuts into key-range parts
// (lsm.CompactionInfo.Bounds) digests each part in a hasher of its own,
// concurrently with the others, and finish on the first part's joins them
// in key order into the trees one hasher would have built over the whole
// stream. Each hasher refuses a record outside its part: the parts are
// disjoint and ascending, so the joined stream is ordered.
//
// Not safe for concurrent use; the finished outputTree is read-only and is.
type compactionHasher struct {
	inputs []inputRun
	part   int    // index of the key-range part this hasher digests
	lo, hi []byte // the part's keys are [lo, hi); nil is open
	err    error  // the first record the job's Filter refused

	curKey  []byte
	haveKey bool
	pending []pendingVersion // current key, newest first
	kept    int              // how many of pending the output keeps
	keptTs  uint64           // timestamp of the last kept one

	out        outputTree
	bookLeaves int      // the output keys the book is sized for
	outLeaves  leafList // a later part's output leaves, for the first's node array
	reused     int      // output leaves taken over from an input run's reconstruction
	finished   bool
}

// inputRun reconstructs one input run's digest; only the root is wanted, so
// no tree is kept. The first part adds the run's leaves to tree as they
// fold; a later part keeps them in leaves until finish adds them to the
// first part's tree, after the leaves of every part before it. n, kept,
// lastTs and inner describe the run's share of the current key and reset
// when it folds.
type inputRun struct {
	id     uint64
	tree   merkle.RootBuilder
	leaves leafList

	n, kept int
	lastTs  uint64
	inner   hashutil.Hash
}

// digest is the reconstructed digest, at no level; final once the hasher
// has finished.
func (r *inputRun) digest() runDigest {
	return runDigest{Root: r.tree.Root(), NumLeaves: r.tree.NumLeaves()}
}

// matches reports whether the reconstructed tree is d's: its root and leaf
// count. The level is the forest's, not the tree's, and the filter hash the
// output's.
func (r *inputRun) matches(d runDigest) bool {
	d.Level, d.Filter = 0, hashutil.Zero
	return r.digest() == d
}

// versionEntry is one version's chain header and the chain value below it.
type versionEntry struct {
	ts    uint64
	dig   hashutil.Hash
	inner hashutil.Hash
}

type pendingVersion struct {
	versionEntry
	src  int // index into inputs; -1 for the trusted memtable
	kept bool
}

// leafList is a later part's leaves of one tree, in fixed-size chunks from
// leafChunkPool: they grow without being copied.
type leafList [][]hashutil.Hash

const leafListChunk = 512

func (l *leafList) add(leaf hashutil.Hash) {
	n := len(*l)
	if n == 0 || len((*l)[n-1]) == leafListChunk {
		*l = append(*l, leafChunkPool.Get().(*[leafListChunk]hashutil.Hash)[:0])
		n++
	}
	(*l)[n-1] = append((*l)[n-1], leaf)
}

// addTo adds the leaves to b in order and hands the chunks back.
func (l *leafList) addTo(b *merkle.RootBuilder) {
	for _, chunk := range *l {
		for _, leaf := range chunk {
			b.Add(leaf)
		}
	}
	l.release()
}

// appendTo appends the leaves to dst and hands the chunks back.
func (l *leafList) appendTo(dst []hashutil.Hash) []hashutil.Hash {
	for _, chunk := range *l {
		dst = append(dst, chunk...)
	}
	l.release()
	return dst
}

func (l *leafList) release() {
	for _, chunk := range *l {
		leafChunkPool.Put((*[leafListChunk]hashutil.Hash)(chunk[:leafListChunk]))
	}
	clear(*l)
	*l = (*l)[:0]
}

// hasherPool keeps first-part hashers, and with them their output
// bookkeeping and node array, from one job to the next; partHasherPool keeps
// the later parts', which have no node array, so that a first part is not
// handed one to grow; leafChunkPool keeps the chunks of later parts' leaves.
// A sync.Pool drops what it holds after two collections, so a level's worth
// of bookkeeping does not stay resident once maintenance goes quiet.
var (
	hasherPool     = sync.Pool{New: func() any { return new(compactionHasher) }}
	partHasherPool = sync.Pool{New: func() any { return new(compactionHasher) }}
	leafChunkPool  = sync.Pool{New: func() any { return new([leafListChunk]hashutil.Hash) }}
)

// newCompactionHasher prepares a hasher for a merge of the given input runs.
// expectLeaves sizes the output bookkeeping up front (0 lets it grow): the
// caller passes the inputs' trusted leaf counts, which the output of a
// compaction cannot exceed. The hasher may be one a finished job released.
func newCompactionHasher(inputRuns []uint64, expectLeaves int) *compactionHasher {
	h := hasherPool.Get().(*compactionHasher)
	h.reset(inputRuns, expectLeaves, expectLeaves)
	return h
}

// newPartedHashers prepares one hasher per key-range part of a job cut at
// bounds, appending them to dst in part order; finish on the first, given
// the others, joins them. The bounds must ascend strictly, or the job is
// refused: the parts would not be disjoint and in key order. Each part's
// key bookkeeping is sized for its share of expectLeaves; the first part's
// node array for the whole output tree.
func newPartedHashers(dst []*compactionHasher, inputRuns []uint64, bounds [][]byte, expectLeaves int) ([]*compactionHasher, error) {
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			return dst, fmt.Errorf("%w: part bounds do not ascend: %q then %q", ErrCompactionInput, bounds[i-1], bounds[i])
		}
	}
	share := expectLeaves / (len(bounds) + 1)
	for p := 0; p <= len(bounds); p++ {
		var h *compactionHasher
		if p == 0 {
			h = hasherPool.Get().(*compactionHasher)
			h.reset(inputRuns, expectLeaves, share)
		} else {
			h = partHasherPool.Get().(*compactionHasher)
			h.reset(inputRuns, 0, share)
			h.part, h.lo = p, bounds[p-1]
		}
		if p < len(bounds) {
			h.hi = bounds[p]
		}
		dst = append(dst, h)
	}
	return dst, nil
}

// reset empties h for a new job, keeping its arrays: the node array sized
// for a tree of expectLeaves leaves, the key bookkeeping for bookLeaves.
func (h *compactionHasher) reset(inputRuns []uint64, expectLeaves, bookLeaves int) {
	h.releaseLeaves()
	inputs := slices.Grow(h.inputs[:0], len(inputRuns))[:len(inputRuns)]
	for i, id := range inputRuns {
		inputs[i] = inputRun{id: id, leaves: inputs[i].leaves}
	}
	o := &h.out
	clear(o.books)
	*h = compactionHasher{
		inputs:     inputs,
		curKey:     h.curKey[:0],
		pending:    h.pending[:0],
		bookLeaves: bookLeaves,
		outLeaves:  h.outLeaves,
		out: outputTree{
			tree:  o.tree,
			nodes: slices.Grow(o.nodes[:0], merkle.NodeCount(expectLeaves)),
			book: keyBook{
				keys:   o.book.keys[:0],
				keyOff: append(slices.Grow(o.book.keyOff[:0], bookLeaves+1), 0),
				vers:   slices.Grow(o.book.vers[:0], bookLeaves),
				verOff: append(slices.Grow(o.book.verOff[:0], bookLeaves+1), 0),
			},
			books: o.books[:0],
		},
	}
}

// releaseLeaves hands back the leaf chunks a later part still holds.
func (h *compactionHasher) releaseLeaves() {
	for i := range h.inputs {
		h.inputs[i].leaves.release()
	}
	h.outLeaves.release()
}

// release returns the hasher to its pool once nothing reads its output tree
// any more: the job has ended and every proof appender is done.
func (h *compactionHasher) release() {
	h.releaseLeaves()
	clear(h.out.books)
	if h.part == 0 {
		hasherPool.Put(h)
	} else {
		partHasherPool.Put(h)
	}
}

// add ingests the next record of the merge stream: srcRun names the run it
// came from (lsm.MemtableRunID for the trusted memtable, which has no tree
// to reconstruct), dropped whether the output discards it.
func (h *compactionHasher) add(srcRun uint64, rec record.Record, dropped bool) error {
	src := -1
	if srcRun != lsm.MemtableRunID {
		for i := range h.inputs {
			if h.inputs[i].id == srcRun {
				src = i
				break
			}
		}
		if src < 0 {
			return fmt.Errorf("core: record from undeclared input run %d", srcRun)
		}
	}
	if h.haveKey {
		switch c := bytes.Compare(rec.Key, h.curKey); {
		case c < 0:
			return fmt.Errorf("%w: stream out of order: %q after %q", ErrCompactionInput, rec.Key, h.curKey)
		case c > 0:
			h.foldKey()
		}
	}
	if !h.haveKey {
		if h.lo != nil && bytes.Compare(rec.Key, h.lo) < 0 || h.hi != nil && bytes.Compare(rec.Key, h.hi) >= 0 {
			return fmt.Errorf("%w: key %q streamed in part %d, which holds [%q, %q)", ErrCompactionInput, rec.Key, h.part, h.lo, h.hi)
		}
		h.curKey = append(h.curKey[:0], rec.Key...)
		h.haveKey = true
	}
	// Versions must descend strictly within each tree the record joins.
	if src >= 0 {
		r := &h.inputs[src]
		if r.n > 0 && rec.Ts >= r.lastTs {
			return fmt.Errorf("%w: version order violation for key %q", ErrCompactionInput, rec.Key)
		}
		r.n++
		r.lastTs = rec.Ts
	}
	if !dropped {
		if h.kept > 0 && rec.Ts >= h.keptTs {
			return fmt.Errorf("%w: version order violation for key %q", ErrCompactionInput, rec.Key)
		}
		h.kept++
		h.keptTs = rec.Ts
		h.out.recordBytes += len(rec.Key) + len(rec.Value) + recordFrame
		if src >= 0 {
			h.inputs[src].kept++
		}
	} else if src < 0 {
		return nil // a dropped memtable record joins no tree
	}
	h.pending = append(h.pending, pendingVersion{
		versionEntry: versionEntry{ts: rec.Ts, dig: rec.Digest()},
		src:          src,
		kept:         !dropped,
	})
	return nil
}

// foldKey folds the buffered versions of the current key into one leaf per
// tree they belong to.
func (h *compactionHasher) foldKey() {
	p := h.pending
	for i := len(p) - 1; i >= 0; i-- { // oldest first: it is innermost
		if p[i].src >= 0 {
			r := &h.inputs[p[i].src]
			p[i].inner = r.inner
			r.inner = hashutil.ChainLink(p[i].ts, p[i].dig, r.inner)
		}
	}
	var outLeaf hashutil.Hash
	reused := false
	for i := range h.inputs {
		r := &h.inputs[i]
		if r.n == 0 {
			continue
		}
		leaf := r.inner // a key's leaf is its chain head
		if h.part == 0 {
			r.tree.Add(leaf)
		} else {
			r.leaves.add(leaf)
		}
		if r.kept == r.n && r.kept == h.kept {
			// The output keeps all of this run's versions and no others:
			// same links, same chain, same leaf.
			outLeaf, reused = leaf, true
		}
		r.n, r.kept, r.inner = 0, 0, hashutil.Zero
	}
	if h.kept > 0 {
		if reused {
			h.reused++
		} else {
			inner := hashutil.Zero
			for i := len(p) - 1; i >= 0; i-- {
				if p[i].kept {
					p[i].inner = inner
					inner = hashutil.ChainLink(p[i].ts, p[i].dig, inner)
				}
			}
			outLeaf = inner
		}
		b := &h.out.book
		if len(b.keys) == 0 {
			// Keys tend to be of one length: room for as many as expected,
			// at no more than maxKeyEstimate bytes each.
			b.keys = slices.Grow(b.keys, h.bookLeaves*min(len(h.curKey), maxKeyEstimate))
		}
		b.keys = append(b.keys, h.curKey...)
		b.keyOff = append(b.keyOff, len(b.keys))
		for i := range p {
			if p[i].kept {
				b.vers = append(b.vers, p[i].versionEntry)
			}
		}
		b.verOff = append(b.verOff, len(b.vers))
		if h.part == 0 {
			h.out.nodes = append(h.out.nodes, outLeaf)
		} else {
			h.outLeaves.add(outLeaf)
		}
	}
	h.pending, h.kept, h.haveKey = p[:0], 0, false
}

// maxKeyEstimate caps the length a book's first key lends the others when
// its key arena is reserved: one long key must not reserve a level's worth.
const maxKeyEstimate = 64

// finish completes every tree once the stream has ended and returns the
// output tree; further calls return the same tree. rest are the hashers of
// the job's later key-range parts, in order, when h is the first's: the
// output tree reads their key books after h's, their output leaves are
// copied behind h's before the one output Build, and their input leaves are
// added to h's root builders on a goroutine beside it. The trees are the
// ones one hasher gives the whole stream.
func (h *compactionHasher) finish(rest ...*compactionHasher) *outputTree {
	o := &h.out
	if h.finished {
		return o
	}
	h.finished = true
	if h.haveKey {
		h.foldKey()
	}
	o.books = append(o.books[:0], &o.book)
	leaves := len(o.nodes)
	for _, p := range rest {
		if p.haveKey {
			p.foldKey()
		}
		p.out.book.firstLeaf = leaves
		leaves += p.out.book.leaves()
		o.books = append(o.books, &p.out.book)
		o.recordBytes += p.out.recordBytes
		h.reused += p.reused
	}
	var wg sync.WaitGroup
	if len(rest) > 0 {
		o.nodes = slices.Grow(o.nodes, merkle.NodeCount(leaves)-len(o.nodes))
		for _, p := range rest {
			o.nodes = p.outLeaves.appendTo(o.nodes)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range h.inputs {
				for _, p := range rest {
					p.inputs[i].leaves.addTo(&h.inputs[i].tree)
				}
			}
		}()
	}
	o.nodes = o.tree.Build(o.nodes)
	o.digest = runDigest{Root: o.tree.Root(), NumLeaves: o.tree.NumLeaves()}
	o.groupBits = groupBits(o.digest.NumLeaves, o.recordBytes, o.blockSize)
	if o.filter = o.keyFilter(); o.filter != nil {
		o.digest.Filter = hashutil.FilterHash(o.filter)
	}
	wg.Wait()
	return o
}

// keyFilter builds the enclave's Bloom filter over the output run's keys —
// the leaves the hasher folded, read from the key books, a key whose newest
// version is a tombstone included — at bloom.DefaultBitsPerKey, each key
// added by its keyHash, the hash a Get probes it with. An empty run gets
// none.
func (o *outputTree) keyFilter() bloom.Filter {
	if o.digest.NumLeaves == 0 {
		return nil
	}
	f := bloom.New(o.digest.NumLeaves, bloom.DefaultBitsPerKey)
	for _, b := range o.books {
		for leaf := range b.leaves() {
			f.AddHash(keyHash(b.key(leaf)))
		}
	}
	return f
}

// outputTree is a finished output tree able to serve the embedded proofs of
// its records: leaf i of the tree is leaf i-firstLeaf of the key book that
// holds it, books being in key order. Immutable once finished, so any number
// of proofAppenders may read it at once, until the job ends and its hashers
// — arrays and all — go back to their pools.
type outputTree struct {
	tree   merkle.Tree
	digest runDigest
	// groupBits is k: the run's blocks are cut at groups of 2^k leaves
	// (sstable.ProofAppender.Group), chosen at finish from blockSize and
	// recordBytes, the output records' framed size.
	groupBits   int
	blockSize   int
	recordBytes int
	// filter is the Bloom filter over the run's keys (keyFilter), built at
	// finish in memory of its own: the run's trustedRun keeps it after the
	// hasher goes back to its pool, and the run's first table stores it.
	filter bloom.Filter

	nodes []hashutil.Hash // the leaves, then every level above them: tree's array
	book  keyBook         // the keys this hasher folded
	books []*keyBook      // every part's book, in key order, once finished
}

// keyBook is one part's flat bookkeeping of the output keys it folded: its
// leaf i's key is keys[keyOff[i]:keyOff[i+1]] and its versions, newest
// first, are vers[verOff[i]:verOff[i+1]] — vers holds one entry per output
// record, in stream order. Its leaf 0 is the tree's leaf firstLeaf.
type keyBook struct {
	keys      []byte
	keyOff    []int // one more entry than leaves; keyOff[0] is 0
	vers      []versionEntry
	verOff    []int // likewise
	firstLeaf int
}

func (b *keyBook) leaves() int         { return len(b.keyOff) - 1 }
func (b *keyBook) key(leaf int) []byte { return b.keys[b.keyOff[leaf]:b.keyOff[leaf+1]] }

// recordFrame approximates the bytes a block spends on one record beside its
// key and value: kind, ts, two length varints and a one-byte chain part with
// its length.
const recordFrame = 1 + 8 + 2 + 2

// groupBits chooses a run's k: the largest for which a group of records of
// the average size and its section fit one block. k = 0 — a block per leaf,
// each carrying that leaf's own path — is what records too large to share a
// block get.
func groupBits(leaves, recordBytes, blockSize int) int {
	if leaves == 0 {
		return 0
	}
	for k := merkle.Height(leaves); k > 0; k-- {
		records := min(1<<k, leaves) * recordBytes / leaves
		if records+binary.MaxVarintLen16+merkle.SectionLen(k, leaves, 0) <= blockSize {
			return k
		}
	}
	return 0
}

// proofAppender writes the proofs of one output file's records straight into
// the file's blocks (sstable.ProofAppender): a chain part per record and a
// section per block. Records of a file arrive in stream order, so after the
// first one — found by binary search on the key books — each lookup is a
// step of the (book, leaf, ver) cursor; a record the cursor does not predict
// is searched for like the first.
type proofAppender struct {
	o         *outputTree
	b         *keyBook // book of the last record located; nil before any
	bi        int      // its index in o.books
	leaf, ver int      // last record located, in b
}

var _ sstable.ProofAppender = (*proofAppender)(nil)

func (o *outputTree) newAppender() *proofAppender { return &proofAppender{o: o} }

func (a *proofAppender) at(bi, leaf, ver int, rec record.Record) bool {
	b := a.o.books[bi]
	if b.vers[ver].ts != rec.Ts || !bytes.Equal(b.key(leaf), rec.Key) {
		return false
	}
	a.b, a.bi, a.leaf, a.ver = b, bi, leaf, ver
	return true
}

// locate moves the cursor to rec and checks that its proof has an encoding.
func (a *proofAppender) locate(rec record.Record) error {
	if err := a.find(rec); err != nil {
		return err
	}
	if newer := a.newer(); newer > maxProofList {
		return fmt.Errorf("%w: key %q has %d newer versions in one run, the format holds %d",
			ErrBadProof, rec.Key, newer, maxProofList)
	}
	return nil
}

func (a *proofAppender) find(rec record.Record) error {
	books := a.o.books
	// The record just located, or — a book's vers is in stream order, and
	// the books are in key order — the one after it.
	if b := a.b; b != nil {
		if a.at(a.bi, a.leaf, a.ver, rec) {
			return nil
		}
		if ver := a.ver + 1; ver < len(b.vers) {
			leaf := a.leaf
			if ver == b.verOff[leaf+1] {
				leaf++
			}
			if a.at(a.bi, leaf, ver, rec) {
				return nil
			}
		} else if bi := a.nextBook(a.bi); bi < len(books) && a.at(bi, 0, 0, rec) {
			return nil
		}
	}
	// The last book whose first key is not past the record's holds its leaf
	// if any does.
	for bi := len(books) - 1; bi >= 0; bi-- {
		b := books[bi]
		n := b.leaves()
		if n == 0 || bytes.Compare(b.key(0), rec.Key) > 0 {
			continue
		}
		leaf := sort.Search(n, func(i int) bool { return bytes.Compare(b.key(i), rec.Key) >= 0 })
		if leaf == n || !bytes.Equal(b.key(leaf), rec.Key) {
			break
		}
		for ver := b.verOff[leaf]; ver < b.verOff[leaf+1]; ver++ {
			if b.vers[ver].ts == rec.Ts {
				a.b, a.bi, a.leaf, a.ver = b, bi, leaf, ver
				return nil
			}
		}
		return fmt.Errorf("core: no version %d for key %q", rec.Ts, rec.Key)
	}
	return fmt.Errorf("core: no leaf for key %q", rec.Key)
}

// nextBook returns the index of the first book after bi that holds a leaf,
// len(o.books) if none does.
func (a *proofAppender) nextBook(bi int) int {
	for bi++; bi < len(a.o.books) && a.o.books[bi].leaves() == 0; bi++ {
	}
	return bi
}

// index returns the located record's leaf index in the tree.
func (a *proofAppender) index() int { return a.b.firstLeaf + a.leaf }

// newer returns the number of versions newer than the located record.
func (a *proofAppender) newer() int { return a.ver - a.b.verOff[a.leaf] }

// Group implements sstable.ProofAppender: a record's group is its leaf's
// aligned subtree of 2^groupBits leaves.
func (a *proofAppender) Group(rec record.Record) (int, error) {
	if err := a.locate(rec); err != nil {
		return 0, err
	}
	return a.index() >> a.o.groupBits, nil
}

// AppendSection implements sstable.ProofAppender.
func (a *proofAppender) AppendSection(dst []byte) []byte {
	return a.o.tree.AppendSection(dst, a.o.groupBits, a.index())
}

// AppendChain implements sstable.ProofAppender: 0x00 for a leaf's only
// version, whose chain is empty, else 0x01 and the chain as the embedded
// proof carries it.
func (a *proofAppender) AppendChain(dst []byte) []byte {
	if a.b.verOff[a.leaf+1]-a.b.verOff[a.leaf] == 1 {
		return append(dst, 0)
	}
	return a.appendChain(append(dst, 1))
}

// appendChain appends the located record's version chain as the embedded
// proof encodes it: the count and headers of the newer versions, ascending
// Ts, then the inner value.
func (a *proofAppender) appendChain(dst []byte) []byte {
	vers, newer := a.b.vers, a.newer()
	dst = binary.BigEndian.AppendUint16(dst, uint16(newer))
	// Versions are stored newest first, so walk from the entry just above
	// this record back to the newest.
	for i := a.ver - 1; i >= a.ver-newer; i-- {
		dst = binary.BigEndian.AppendUint64(dst, vers[i].ts)
		dst = append(dst, vers[i].dig[:]...)
	}
	return append(dst, vers[a.ver].inner[:]...)
}

// ProofLen returns the length of the embedded proof AppendProof gives rec.
func (a *proofAppender) ProofLen(rec record.Record) (int, error) {
	if err := a.locate(rec); err != nil {
		return 0, err
	}
	return proofSize(a.newer(), merkle.PathLen(a.index(), a.o.digest.NumLeaves)), nil
}

// AppendProof appends rec's whole embedded proof, the bytes of
// EmbeddedProof.Encode for it: what a reader rebuilds from the chain part and
// section this appender writes (sstable.Proof), assembled here from the tree.
func (a *proofAppender) AppendProof(dst []byte, rec record.Record) ([]byte, error) {
	if err := a.locate(rec); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.index()))
	dst = a.appendChain(dst)
	dst = binary.BigEndian.AppendUint16(dst, uint16(merkle.PathLen(a.index(), a.o.digest.NumLeaves)))
	return a.o.tree.AppendPath(dst, a.index()), nil
}
