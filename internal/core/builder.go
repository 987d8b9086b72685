package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// runDigest is the trusted per-run state kept inside the enclave: the
// Merkle root over the run's distinct keys and the leaf count (needed to
// validate path shapes and adjacency claims).
type runDigest struct {
	Root      hashutil.Hash `json:"root"`
	NumLeaves int           `json:"leaves"`
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
// Not safe for concurrent use; the finished outputTree is read-only and is.
type compactionHasher struct {
	inputs []inputRun

	curKey  []byte
	haveKey bool
	pending []pendingVersion // current key, newest first
	kept    int              // how many of pending the output keeps
	keptTs  uint64           // timestamp of the last kept one

	out      outputTree
	reused   int // output leaves taken over from an input run's reconstruction
	finished bool
}

// inputRun reconstructs one input run's digest; only the root is wanted, so
// no tree is kept. n, kept, lastTs and inner describe the run's share of
// the current key and reset when it folds.
type inputRun struct {
	id   uint64
	tree merkle.RootBuilder

	n, kept int
	lastTs  uint64
	inner   hashutil.Hash
}

// digest is the reconstructed digest; final once the hasher has finished.
func (r *inputRun) digest() runDigest {
	return runDigest{Root: r.tree.Root(), NumLeaves: r.tree.NumLeaves()}
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

// hasherPool keeps hashers, and with them their output bookkeeping, from
// one job to the next. A sync.Pool drops what it holds after two
// collections, so a level's worth of bookkeeping does not stay resident
// once maintenance goes quiet.
var hasherPool = sync.Pool{New: func() any { return new(compactionHasher) }}

// newCompactionHasher prepares a hasher for a merge of the given input runs.
// expectLeaves sizes the output bookkeeping up front (0 lets it grow): the
// caller passes the inputs' trusted leaf counts, which the output of a
// compaction cannot exceed. The hasher may be one a finished job released.
func newCompactionHasher(inputRuns []uint64, expectLeaves int) *compactionHasher {
	h := hasherPool.Get().(*compactionHasher)
	h.reset(inputRuns, expectLeaves)
	return h
}

// reset empties h for a new job, keeping its arrays.
func (h *compactionHasher) reset(inputRuns []uint64, expectLeaves int) {
	inputs := slices.Grow(h.inputs[:0], len(inputRuns))[:len(inputRuns)]
	clear(inputs)
	for i, id := range inputRuns {
		inputs[i].id = id
	}
	o := &h.out
	*h = compactionHasher{
		inputs:  inputs,
		curKey:  h.curKey[:0],
		pending: h.pending[:0],
		out: outputTree{
			tree:   o.tree,
			nodes:  slices.Grow(o.nodes[:0], merkle.NodeCount(expectLeaves)),
			keys:   o.keys[:0],
			keyOff: append(slices.Grow(o.keyOff[:0], expectLeaves+1), 0),
			vers:   slices.Grow(o.vers[:0], expectLeaves),
			verOff: append(slices.Grow(o.verOff[:0], expectLeaves+1), 0),
		},
	}
}

// release returns the hasher to the pool once nothing reads its output tree
// any more: the job has ended and every proof appender is done.
func (h *compactionHasher) release() { hasherPool.Put(h) }

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
			return fmt.Errorf("core: compaction stream out of order: %q after %q", rec.Key, h.curKey)
		case c > 0:
			h.foldKey()
		}
	}
	if !h.haveKey {
		h.curKey = append(h.curKey[:0], rec.Key...)
		h.haveKey = true
	}
	// Versions must descend strictly within each tree the record joins.
	if src >= 0 {
		r := &h.inputs[src]
		if r.n > 0 && rec.Ts >= r.lastTs {
			return fmt.Errorf("core: version order violation for key %q", rec.Key)
		}
		r.n++
		r.lastTs = rec.Ts
	}
	if !dropped {
		if h.kept > 0 && rec.Ts >= h.keptTs {
			return fmt.Errorf("core: version order violation for key %q", rec.Key)
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
		leaf := hashutil.LeafHash(h.curKey, r.inner)
		r.tree.Add(leaf)
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
			outLeaf = hashutil.LeafHash(h.curKey, inner)
		}
		o := &h.out
		o.keys = append(o.keys, h.curKey...)
		o.keyOff = append(o.keyOff, len(o.keys))
		for i := range p {
			if p[i].kept {
				o.vers = append(o.vers, p[i].versionEntry)
			}
		}
		o.verOff = append(o.verOff, len(o.vers))
		o.nodes = append(o.nodes, outLeaf)
	}
	h.pending, h.kept, h.haveKey = p[:0], 0, false
}

// finish completes every tree once the stream has ended and returns the
// output tree; further calls return the same tree.
func (h *compactionHasher) finish() *outputTree {
	if !h.finished {
		h.finished = true
		if h.haveKey {
			h.foldKey()
		}
		o := &h.out
		o.nodes = o.tree.Build(o.nodes)
		o.digest = runDigest{Root: o.tree.Root(), NumLeaves: o.tree.NumLeaves()}
		o.groupBits = groupBits(o.digest.NumLeaves, o.recordBytes, o.blockSize)
	}
	return &h.out
}

// outputTree is a finished output tree able to serve the embedded proofs of
// its records. Its bookkeeping is flat: leaf i's key is
// keys[keyOff[i]:keyOff[i+1]] and its versions, newest first, are
// vers[verOff[i]:verOff[i+1]] — vers holds one entry per output record, in
// stream order. Immutable once finished, so any number of proofAppenders
// may read it at once, until the job ends and its hasher — arrays and all —
// goes back to the pool.
type outputTree struct {
	tree   merkle.Tree
	digest runDigest
	// groupBits is k: the run's blocks are cut at groups of 2^k leaves
	// (sstable.ProofAppender.Group), chosen at finish from blockSize and
	// recordBytes, the output records' framed size.
	groupBits   int
	blockSize   int
	recordBytes int

	nodes  []hashutil.Hash // the leaves, then every level above them: tree's array
	keys   []byte
	keyOff []int // one more entry than leaves; keyOff[0] is 0
	vers   []versionEntry
	verOff []int // likewise
}

func (o *outputTree) key(leaf int) []byte { return o.keys[o.keyOff[leaf]:o.keyOff[leaf+1]] }

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
// first one — found by binary search on the key arena — each lookup is a
// step of the (leaf, ver) cursor; a record the cursor does not predict is
// searched for like the first.
type proofAppender struct {
	o         *outputTree
	leaf, ver int // last record located; ver indexes o.vers, -1 before any
}

var _ sstable.ProofAppender = (*proofAppender)(nil)

func (o *outputTree) newAppender() *proofAppender { return &proofAppender{o: o, ver: -1} }

func (a *proofAppender) at(leaf, ver int, rec record.Record) bool {
	if a.o.vers[ver].ts != rec.Ts || !bytes.Equal(a.o.key(leaf), rec.Key) {
		return false
	}
	a.leaf, a.ver = leaf, ver
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
	o := a.o
	// The record just located, or — vers is in stream order — the one after.
	for ver := a.ver; ver >= 0 && ver <= a.ver+1 && ver < len(o.vers); ver++ {
		leaf := a.leaf
		if ver == o.verOff[leaf+1] {
			leaf++
		}
		if a.at(leaf, ver, rec) {
			return nil
		}
	}
	n := o.digest.NumLeaves
	leaf := sort.Search(n, func(i int) bool { return bytes.Compare(o.key(i), rec.Key) >= 0 })
	if leaf == n || !bytes.Equal(o.key(leaf), rec.Key) {
		return fmt.Errorf("core: no leaf for key %q", rec.Key)
	}
	for ver := o.verOff[leaf]; ver < o.verOff[leaf+1]; ver++ {
		if o.vers[ver].ts == rec.Ts {
			a.leaf, a.ver = leaf, ver
			return nil
		}
	}
	return fmt.Errorf("core: no version %d for key %q", rec.Ts, rec.Key)
}

// newer returns the number of versions newer than the located record.
func (a *proofAppender) newer() int { return a.ver - a.o.verOff[a.leaf] }

// Group implements sstable.ProofAppender: a record's group is its leaf's
// aligned subtree of 2^groupBits leaves.
func (a *proofAppender) Group(rec record.Record) (int, error) {
	if err := a.locate(rec); err != nil {
		return 0, err
	}
	return a.leaf >> a.o.groupBits, nil
}

// AppendSection implements sstable.ProofAppender.
func (a *proofAppender) AppendSection(dst []byte) []byte {
	return a.o.tree.AppendSection(dst, a.o.groupBits, a.leaf)
}

// AppendChain implements sstable.ProofAppender: 0x00 for a leaf's only
// version, whose chain is empty, else 0x01 and the chain as the embedded
// proof carries it.
func (a *proofAppender) AppendChain(dst []byte) []byte {
	if a.o.verOff[a.leaf+1]-a.o.verOff[a.leaf] == 1 {
		return append(dst, 0)
	}
	return a.appendChain(append(dst, 1))
}

// appendChain appends the located record's version chain as the embedded
// proof encodes it: the count and headers of the newer versions, ascending
// Ts, then the inner value.
func (a *proofAppender) appendChain(dst []byte) []byte {
	o, newer := a.o, a.newer()
	dst = binary.BigEndian.AppendUint16(dst, uint16(newer))
	// Versions are stored newest first, so walk from the entry just above
	// this record back to the newest.
	for i := a.ver - 1; i >= a.ver-newer; i-- {
		dst = binary.BigEndian.AppendUint64(dst, o.vers[i].ts)
		dst = append(dst, o.vers[i].dig[:]...)
	}
	return append(dst, o.vers[a.ver].inner[:]...)
}

// ProofLen returns the length of the embedded proof AppendProof gives rec.
func (a *proofAppender) ProofLen(rec record.Record) (int, error) {
	if err := a.locate(rec); err != nil {
		return 0, err
	}
	return proofSize(a.newer(), merkle.PathLen(a.leaf, a.o.digest.NumLeaves)), nil
}

// AppendProof appends rec's whole embedded proof, the bytes of
// EmbeddedProof.Encode for it: what a reader rebuilds from the chain part and
// section this appender writes (sstable.Proof), assembled here from the tree.
func (a *proofAppender) AppendProof(dst []byte, rec record.Record) ([]byte, error) {
	if err := a.locate(rec); err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(a.leaf))
	dst = a.appendChain(dst)
	dst = binary.BigEndian.AppendUint16(dst, uint16(merkle.PathLen(a.leaf, a.o.digest.NumLeaves)))
	return a.o.tree.AppendPath(dst, a.leaf), nil
}
