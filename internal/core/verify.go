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

// verifier is one store's trusted-side proof checker: the enclave's cache
// of already-verified Merkle nodes and the counters of the work done. The
// zero verifier has no cache and walks every path to the root.
//
// Everything it compares — keys, timestamps, leaf indexes, hashes — it reads
// from the records it is handed, which callers have already copied out of
// untrusted memory; it never looks at an SSTable block.
type verifier struct {
	nodes *merkle.NodeCache

	nodeHits   atomic.Uint64 // witnesses whose walk ended at a cached node
	nodeMisses atomic.Uint64 // witnesses walked to the trusted root
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
	v.nodeHashes.Add(uint64(walk.Hashes))
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrForged, err)
	}
	if walk.CacheHit {
		v.nodeHits.Add(1)
	} else {
		v.nodeMisses.Add(1)
	}
	return p, nil
}

// verifyMembership is the per-run membership half of VRFY (§5.3): the
// record must verify against the run root, and it must be the newest
// version with Ts ≤ tsq — any newer version is visible in the proof's
// chain headers, so staleness is detectable (Theorem 5.3, Case 1).
func (v *verifier) verifyMembership(key []byte, tsq uint64, rec record.Record, d runDigest) error {
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
	for i, n := 0, p.numNewer(); i < n; i++ {
		if ts := p.newerEntry(i).Ts; ts <= tsq {
			return fmt.Errorf("%w: version %d supersedes result %d (≤ tsq %d)", ErrStale, ts, rec.Ts, tsq)
		}
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

// verifyRunScan checks a per-run range result for integrity and
// completeness (§5.4): the returned records must reconstruct a contiguous
// span of leaves under the run root, and the bracketing witnesses must
// prove no in-range leaf was withheld at either boundary.
func (v *verifier) verifyRunScan(start, end []byte, rs lsm.RunScan, d runDigest) error {
	if len(rs.Records) == 0 {
		// Empty range result: same shape as non-membership, with the
		// witnesses straddling the whole range.
		lk := lsm.RunLookup{RunID: rs.RunID, Pred: rs.Pred, Succ: rs.Succ, EmptyRun: rs.EmptyRun}
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

	// Group in-range records into per-key version chains and rebuild the
	// leaf hashes. Any missing or forged version breaks the chain.
	var (
		leaves  []hashutil.Hash
		groups  [][]record.Record
		current []record.Record
	)
	for i := range rs.Records {
		rec := rs.Records[i]
		if bytes.Compare(rec.Key, start) < 0 || bytes.Compare(rec.Key, end) > 0 {
			return fmt.Errorf("%w: record %q outside range", ErrForged, rec.Key)
		}
		if len(current) > 0 && !bytes.Equal(current[0].Key, rec.Key) {
			groups = append(groups, current)
			current = nil
		}
		if len(current) > 0 {
			prev := current[len(current)-1]
			if prev.Ts <= rec.Ts {
				return fmt.Errorf("%w: version order violated for %q", ErrForged, rec.Key)
			}
		}
		current = append(current, rec)
	}
	groups = append(groups, current)
	for _, g := range groups {
		inner := hashutil.Zero
		for i := len(g) - 1; i >= 0; i-- {
			inner = hashutil.ChainLink(g[i].Ts, g[i].Digest(), inner)
		}
		leaves = append(leaves, hashutil.LeafHash(g[0].Key, inner))
	}

	// The range proof is assembled from the embedded proofs of the first
	// and last records (§5.2): left-boundary siblings from the first
	// record's path, right-boundary siblings from the last record's path.
	firstProof, err := DecodeProof(groups[0][0].Proof)
	if err != nil {
		return fmt.Errorf("%w: first record proof: %v", ErrForged, err)
	}
	lastGroup := groups[len(groups)-1]
	lastProof, err := DecodeProof(lastGroup[0].Proof)
	if err != nil {
		return fmt.Errorf("%w: last record proof: %v", ErrForged, err)
	}
	startIdx := int(firstProof.LeafIndex)
	endIdx := startIdx + len(leaves) - 1
	rp := &merkle.RangeProof{
		Start: startIdx,
		Left:  firstProof.LeftSiblings(),
		Right: lastProof.RightSiblings(),
	}
	if err := merkle.VerifyRange(leaves, d.NumLeaves, rp, d.Root); err != nil {
		return fmt.Errorf("%w: range proof: %v", ErrForged, err)
	}

	// Boundary completeness: if leaves exist before/after the span, the
	// host must present them and they must fall outside the query range.
	if startIdx > 0 {
		if rs.Pred == nil {
			return fmt.Errorf("%w: missing range predecessor (span starts at leaf %d)", ErrIncomplete, startIdx)
		}
		if bytes.Compare(rs.Pred.Key, start) >= 0 {
			return fmt.Errorf("%w: predecessor %q inside range", ErrIncomplete, rs.Pred.Key)
		}
		p, err := v.verifyWitness(*rs.Pred, d)
		if err != nil {
			return err
		}
		if int(p.leafIndex) != startIdx-1 {
			return fmt.Errorf("%w: predecessor at leaf %d, span starts at %d", ErrIncomplete, p.leafIndex, startIdx)
		}
	}
	if endIdx < d.NumLeaves-1 {
		if rs.Succ == nil {
			return fmt.Errorf("%w: missing range successor (span ends at leaf %d of %d)", ErrIncomplete, endIdx, d.NumLeaves)
		}
		if bytes.Compare(rs.Succ.Key, end) <= 0 {
			return fmt.Errorf("%w: successor %q inside range", ErrIncomplete, rs.Succ.Key)
		}
		p, err := v.verifyWitness(*rs.Succ, d)
		if err != nil {
			return err
		}
		if int(p.leafIndex) != endIdx+1 {
			return fmt.Errorf("%w: successor at leaf %d, span ends at %d", ErrIncomplete, p.leafIndex, endIdx)
		}
	} else if endIdx > d.NumLeaves-1 {
		return fmt.Errorf("%w: span exceeds digested key count", ErrForged)
	}
	return nil
}
