package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
)

// Authentication failures. All wrap ErrAuthFailed so callers can classify
// with errors.Is.
var (
	// ErrAuthFailed is the base class of every verification failure.
	ErrAuthFailed = errors.New("core: authentication failed")
	// ErrForged marks results that fail Merkle verification (query
	// integrity, §3.3 definition 1).
	ErrForged = fmt.Errorf("%w: forged or corrupted result", ErrAuthFailed)
	// ErrStale marks results that fail the freshness check (§3.3
	// definition 3).
	ErrStale = fmt.Errorf("%w: stale result", ErrAuthFailed)
	// ErrIncomplete marks results that fail the completeness check (§3.3
	// definition 2).
	ErrIncomplete = fmt.Errorf("%w: incomplete result", ErrAuthFailed)
	// ErrCompactionInput marks authenticated-compaction input mismatches
	// (§5.5.2 step a).
	ErrCompactionInput = fmt.Errorf("%w: compaction input digest mismatch", ErrAuthFailed)
	// ErrRollback marks detected rollback attacks (§5.6.1).
	ErrRollback = fmt.Errorf("%w: rollback detected", ErrAuthFailed)
	// ErrStateMissing means the untrusted host lost or withheld the sealed
	// trusted state while data files exist.
	ErrStateMissing = fmt.Errorf("%w: sealed trusted state missing", ErrAuthFailed)
)

// verifier is one store's trusted-side proof checker: the enclave's caches
// of already-verified Merkle nodes and records (VerifiedCaches) and the
// counters of the work done. The zero verifier has no caches and walks every
// path to the root.
//
// Everything it compares — keys, timestamps, leaf indexes, hashes — it reads
// from the records it is handed, which callers have already copied out of
// untrusted memory; it never looks at an SSTable block.
type verifier struct {
	nodes   *merkle.NodeCache
	records *recordCache

	nodeHits   atomic.Uint64 // witnesses and scan spans whose walk ended at a cached node
	nodeMisses atomic.Uint64 // those walked to the trusted root
	nodeHashes atomic.Uint64 // interior node hashes computed
}

// verifyWitness checks a record's embedded proof against the run digest and
// returns the parsed proof. It establishes that the record (with its claimed
// version-chain position) is a leaf of the run's Merkle tree.
func (v *verifier) verifyWitness(rec record.Record, d runDigest) (proofView, error) {
	p, err := viewProof(rec.Proof)
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrForged, err)
	}
	walk, err := v.nodes.VerifyPath(p.reconstructLeaf(rec), int(p.leafIndex), d.NumLeaves, p.path, d.Root)
	v.countWalk(walk, err)
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrForged, err)
	}
	return p, nil
}

// countWalk adds one path or range walk to the counters.
func (v *verifier) countWalk(walk merkle.PathWalk, err error) {
	v.nodeHashes.Add(uint64(walk.Hashes))
	switch {
	case err != nil:
	case walk.CacheHit:
		v.nodeHits.Add(1)
	default:
		v.nodeMisses.Add(1)
	}
}

// verifyHit is the per-run membership half of VRFY (§5.3) for key, whose
// keyHash is kh: the record must verify against the run root, and it must
// be the newest version with Ts ≤ tsq — any newer version is visible in the
// proof's chain headers, so staleness is detectable (Theorem 5.3, Case 1). A
// record the verified chain shows to be its key's newest version in the run
// goes into the record cache, whatever tsq was.
func (v *verifier) verifyHit(key []byte, kh uint64, tsq uint64, rec record.Record, d runDigest) error {
	if !bytes.Equal(rec.Key, key) {
		return fmt.Errorf("%w: result key %q does not match query %q", ErrForged, rec.Key, key)
	}
	if rec.Ts > tsq {
		return fmt.Errorf("%w: result newer than query time", ErrForged)
	}
	p, err := v.verifyWitness(rec, d)
	if err != nil {
		return err
	}
	// Freshness: every newer version in this run must postdate tsq.
	// Newer is ascending, so checking the first entry suffices — but the
	// chain itself was hash-verified, so all entries are authentic.
	n := p.numNewer()
	for i := 0; i < n; i++ {
		if ts := p.newerEntry(i).Ts; ts <= tsq {
			return fmt.Errorf("%w: version %d supersedes result %d (≤ tsq %d)", ErrStale, ts, rec.Ts, tsq)
		}
	}
	if n == 0 {
		v.records.insert(&d.Root, &rec, kh)
	}
	return nil
}

// verifyNonMembership is the per-run non-membership half of VRFY: the two
// bracketing witnesses must be adjacent leaves with keys straddling the
// queried key (§5.5.1), or — for historical queries — the oldest version of
// the key itself, newer than tsq.
func (v *verifier) verifyNonMembership(key []byte, tsq uint64, lk lsm.RunLookup, d runDigest) error {
	if lk.EmptyRun || (lk.Pred == nil && lk.Succ == nil) {
		if d.NumLeaves != 0 {
			return fmt.Errorf("%w: host claims empty run but %d keys are digested", ErrIncomplete, d.NumLeaves)
		}
		return nil
	}
	// Historical witness: the key exists but only with versions newer
	// than tsq. The witness must be the oldest version (Inner == 0).
	if lk.Pred != nil && bytes.Equal(lk.Pred.Key, key) {
		p, err := v.verifyWitness(*lk.Pred, d)
		if err != nil {
			return err
		}
		if lk.Pred.Ts <= tsq {
			return fmt.Errorf("%w: witness version %d satisfies the query", ErrIncomplete, lk.Pred.Ts)
		}
		if !p.innerIsZero() {
			return fmt.Errorf("%w: historical witness is not the oldest version", ErrIncomplete)
		}
		return nil
	}
	predIdx, succIdx := -1, -1
	if lk.Pred != nil {
		if bytes.Compare(lk.Pred.Key, key) >= 0 {
			return fmt.Errorf("%w: predecessor witness %q not below query %q", ErrIncomplete, lk.Pred.Key, key)
		}
		p, err := v.verifyWitness(*lk.Pred, d)
		if err != nil {
			return err
		}
		predIdx = int(p.leafIndex)
	}
	if lk.Succ != nil {
		if bytes.Compare(lk.Succ.Key, key) <= 0 {
			return fmt.Errorf("%w: successor witness %q not above query %q", ErrIncomplete, lk.Succ.Key, key)
		}
		p, err := v.verifyWitness(*lk.Succ, d)
		if err != nil {
			return err
		}
		succIdx = int(p.leafIndex)
	}
	switch {
	case lk.Pred == nil:
		if succIdx != 0 {
			return fmt.Errorf("%w: no predecessor but successor at leaf %d", ErrIncomplete, succIdx)
		}
	case lk.Succ == nil:
		if predIdx != d.NumLeaves-1 {
			return fmt.Errorf("%w: no successor but predecessor at leaf %d of %d", ErrIncomplete, predIdx, d.NumLeaves)
		}
	default:
		if succIdx != predIdx+1 {
			return fmt.Errorf("%w: witnesses not adjacent (%d, %d)", ErrIncomplete, predIdx, succIdx)
		}
	}
	return nil
}

// runSpan is one run's share of a scan chunk as it crossed into the enclave:
// every version of every key the run's cursor handed over, copied once, and
// the at most four proofs that authenticate the span. Nothing in it aliases
// untrusted memory.
type runSpan struct {
	runID uint64
	// rows are the span's records in the order the cursor produced them. Key
	// and Value alias the chunk's arena; Proof is unset — only the four
	// proofs below are ever copied.
	rows []record.Record
	// first and last are the embedded proofs of the span's first and last
	// key (of whichever version heads them in the run: leaf index and path
	// are the key's). Unset when rows is empty.
	first, last []byte
	// pred is the record before the cursor's seek position and succ the one
	// it stopped on, each with its proof; nil at the run's edges.
	pred, succ *record.Record
}

// chainLink is one version's link of its key's hash chain. A key's versions
// arrive newest first and the chain folds from the oldest, so they wait here.
type chainLink struct {
	ts     uint64
	digest hashutil.Hash
}

// spanScratch is the memory verifyRunScan folds a span in, reused from run to
// run and chunk to chunk: one leaf per key of the largest span seen and one
// link per version of its longest chain.
type spanScratch struct {
	leaves []hashutil.Hash
	chain  []chainLink
}

// foldChain hashes a key's version chain, links newest first, into its leaf.
func foldChain(key []byte, chain []chainLink) hashutil.Hash {
	inner := hashutil.Zero
	for i := len(chain) - 1; i >= 0; i-- {
		inner = hashutil.ChainLink(chain[i].ts, chain[i].digest, inner)
	}
	return hashutil.LeafHash(key, inner)
}

// verifyRunScan checks a per-run range result for integrity and
// completeness (§5.4): the returned records must reconstruct a contiguous
// span of leaves under the run root, and the bracketing witnesses must
// prove no in-range leaf was withheld at either boundary. One pass over the
// rows range-checks them, orders them and folds every key's version chain —
// all its in-run versions, those newer than the query time included — into
// its leaf; the two boundary proofs then place the leaves in the tree.
func (v *verifier) verifyRunScan(start, end []byte, sp *runSpan, d runDigest, sc *spanScratch) error {
	if len(sp.rows) == 0 {
		// Empty range result: same shape as non-membership, with the
		// witnesses straddling the whole range.
		lk := lsm.RunLookup{RunID: sp.runID, Pred: sp.pred, Succ: sp.succ}
		if lk.Pred != nil && bytes.Compare(lk.Pred.Key, start) >= 0 {
			return fmt.Errorf("%w: range predecessor inside range", ErrIncomplete)
		}
		if lk.Succ != nil && bytes.Compare(lk.Succ.Key, end) <= 0 {
			return fmt.Errorf("%w: range successor inside range", ErrIncomplete)
		}
		// Adjacency check via the point-query helper with a pseudo key:
		// any key strictly between the witnesses; using start is sound
		// because witness keys were just checked against the bounds.
		return v.verifyNonMembership(start, record.MaxTs, lk, d)
	}

	// Rebuild the leaf hashes. Any missing or forged version breaks its
	// key's chain.
	leaves, chain := sc.leaves[:0], sc.chain[:0]
	for i := range sp.rows {
		rec := &sp.rows[i]
		if bytes.Compare(rec.Key, start) < 0 || bytes.Compare(rec.Key, end) > 0 {
			return fmt.Errorf("%w: record %q outside range", ErrForged, rec.Key)
		}
		if i > 0 {
			if prev := &sp.rows[i-1]; !bytes.Equal(prev.Key, rec.Key) {
				leaves = append(leaves, foldChain(prev.Key, chain))
				chain = chain[:0]
			} else if prev.Ts <= rec.Ts {
				return fmt.Errorf("%w: version order violated for %q", ErrForged, rec.Key)
			}
		}
		chain = append(chain, chainLink{ts: rec.Ts, digest: rec.Digest()})
	}
	leaves = append(leaves, foldChain(sp.rows[len(sp.rows)-1].Key, chain))
	sc.leaves, sc.chain = leaves, chain // keep what they grew to

	// The range proof is the embedded proofs of the first and last keys
	// (§5.2): left-boundary siblings from the first's path, right-boundary
	// siblings from the last's.
	first, err := viewProof(sp.first)
	if err != nil {
		return fmt.Errorf("%w: first record proof: %v", ErrForged, err)
	}
	last, err := viewProof(sp.last)
	if err != nil {
		return fmt.Errorf("%w: last record proof: %v", ErrForged, err)
	}
	startIdx := int(first.leafIndex)
	endIdx := startIdx + len(leaves) - 1
	if endIdx > d.NumLeaves-1 {
		return fmt.Errorf("%w: span exceeds digested key count", ErrForged)
	}
	if int(last.leafIndex) != endIdx {
		return fmt.Errorf("%w: last record proof is of leaf %d, span ends at %d", ErrForged, last.leafIndex, endIdx)
	}
	walk, err := v.nodes.VerifyRange(leaves, startIdx, d.NumLeaves, first.path, last.path, d.Root)
	v.countWalk(walk, err)
	if err != nil {
		return fmt.Errorf("%w: range proof: %v", ErrForged, err)
	}

	// Boundary completeness: if leaves exist before/after the span, the
	// host must present them and they must fall outside the query range.
	if startIdx > 0 {
		if sp.pred == nil {
			return fmt.Errorf("%w: missing range predecessor (span starts at leaf %d)", ErrIncomplete, startIdx)
		}
		if bytes.Compare(sp.pred.Key, start) >= 0 {
			return fmt.Errorf("%w: predecessor %q inside range", ErrIncomplete, sp.pred.Key)
		}
		p, err := v.verifyWitness(*sp.pred, d)
		if err != nil {
			return err
		}
		if int(p.leafIndex) != startIdx-1 {
			return fmt.Errorf("%w: predecessor at leaf %d, span starts at %d", ErrIncomplete, p.leafIndex, startIdx)
		}
	}
	if endIdx < d.NumLeaves-1 {
		if sp.succ == nil {
			return fmt.Errorf("%w: missing range successor (span ends at leaf %d of %d)", ErrIncomplete, endIdx, d.NumLeaves)
		}
		if bytes.Compare(sp.succ.Key, end) <= 0 {
			return fmt.Errorf("%w: successor %q inside range", ErrIncomplete, sp.succ.Key)
		}
		p, err := v.verifyWitness(*sp.succ, d)
		if err != nil {
			return err
		}
		if int(p.leafIndex) != endIdx+1 {
			return fmt.Errorf("%w: successor at leaf %d, span ends at %d", ErrIncomplete, p.leafIndex, endIdx)
		}
	}
	return nil
}
