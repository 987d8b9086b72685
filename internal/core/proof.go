// Package core implements eLSM (§5 of the paper): the authenticated
// LSM-tree layer that runs inside the enclave and protects all data placed
// outside it. It maintains a forest of Merkle trees — one per sorted run —
// whose roots live in enclave memory, embeds per-record Merkle proofs into
// SSTable records during authenticated COMPACTION, and verifies every
// GET/SCAN result for integrity, freshness and completeness with early-stop
// proofs (Theorem 5.3, Lemma 5.4).
//
// The layer attaches to the LSM engine exclusively through the engine's
// EventListener callbacks — no engine code change — which is the paper's
// "add-on middleware" contribution (§5.5.3).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
)

// ChainEntry is the header of one same-key version that is newer than the
// record carrying the proof. Presenting any stale version forces these
// headers into the proof, which is how the verifier detects freshness
// violations (§5.3.1 Case 1b: "the fresher record included in the neighbors
// is exposed to the enclave").
type ChainEntry struct {
	Ts        uint64
	RecDigest hashutil.Hash
}

// EmbeddedProof is the per-record authentication proof that travels with a
// record copied out of its SSTable (§5.2: 〈k, v ‖ π〉). It localizes the
// record within its run's Merkle tree and within its key's version hash
// chain. On disk a block stores its records' paths once, in its group
// section; the reader reassembles this encoding whenever it copies a witness
// (sstable.Proof).
type EmbeddedProof struct {
	// LeafIndex is the position of this record's key among the run's
	// distinct keys (the Merkle leaf order).
	LeafIndex uint32
	// Newer holds the headers of same-key versions newer than this
	// record, ordered oldest-to-newest (ascending Ts). Empty for the
	// newest version.
	Newer []ChainEntry
	// Inner is the hash-chain value over the same-key versions older than
	// this record; zero when this record is the oldest version.
	Inner hashutil.Hash
	// Path is the Merkle authentication path from the leaf to the run
	// root.
	Path []merkle.PathNode
}

// Proof encoding errors.
var ErrBadProof = errors.New("core: malformed embedded proof")

// maxProofList is the longest Newer or Path list the format can carry: both
// counts are uint16 on the wire.
const maxProofList = math.MaxUint16

// proofSize is the encoded size of a proof with the given list lengths.
func proofSize(newer, path int) int {
	return 4 + 2 + newer*chainEntrySize + hashutil.Size + 2 + path*merkle.PathNodeSize
}

// Encode serializes the proof. A proof whose lists exceed maxProofList has
// no encoding and yields nil, which no verifier accepts; authenticated
// compaction (proofAppender) refuses to write such a run in the first place.
func (p *EmbeddedProof) Encode() []byte {
	if len(p.Newer) > maxProofList || len(p.Path) > maxProofList {
		return nil
	}
	out := make([]byte, 0, proofSize(len(p.Newer), len(p.Path)))
	out = binary.BigEndian.AppendUint32(out, p.LeafIndex)
	out = binary.BigEndian.AppendUint16(out, uint16(len(p.Newer)))
	for _, e := range p.Newer {
		out = binary.BigEndian.AppendUint64(out, e.Ts)
		out = append(out, e.RecDigest[:]...)
	}
	out = append(out, p.Inner[:]...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(p.Path)))
	for _, pn := range p.Path {
		side := byte(0)
		if pn.Left {
			side = 1
		}
		out = append(out, side)
		out = append(out, pn.Hash[:]...)
	}
	return out
}

// chainEntrySize is the encoded size of one ChainEntry: ts ‖ record digest.
const chainEntrySize = 8 + hashutil.Size

// proofView is an embedded proof parsed in place — the one parser of the
// format. Its slices alias the proof bytes, so the caller must own them:
// verified reads view only proofs already cloned out of untrusted memory.
type proofView struct {
	leafIndex uint32
	newer     []byte // chainEntrySize-byte entries, oldest to newest
	inner     []byte // hashutil.Size bytes
	path      []byte // merkle.PathNodeSize-byte steps, bottom-up
}

// viewProof parses a serialized proof. The header counts are checked
// against len(data) before anything is sliced.
func viewProof(data []byte) (proofView, error) {
	var v proofView
	if len(data) < 6 {
		return v, fmt.Errorf("%w: too short", ErrBadProof)
	}
	v.leafIndex = binary.BigEndian.Uint32(data[:4])
	nNewer := int(binary.BigEndian.Uint16(data[4:6]))
	off := 6 + nNewer*chainEntrySize
	if len(data) < off+hashutil.Size+2 {
		return v, fmt.Errorf("%w: truncated chain", ErrBadProof)
	}
	v.newer = data[6:off]
	v.inner = data[off : off+hashutil.Size]
	off += hashutil.Size
	nPath := int(binary.BigEndian.Uint16(data[off : off+2]))
	off += 2
	if len(data) != off+nPath*merkle.PathNodeSize {
		return v, fmt.Errorf("%w: truncated path", ErrBadProof)
	}
	v.path = data[off:]
	return v, nil
}

// numNewer returns the number of newer-version headers.
func (v proofView) numNewer() int { return len(v.newer) / chainEntrySize }

// newerEntry returns the i-th newer-version header (ascending Ts).
func (v proofView) newerEntry(i int) (e ChainEntry) {
	b := v.newer[i*chainEntrySize:]
	e.Ts = binary.BigEndian.Uint64(b[:8])
	copy(e.RecDigest[:], b[8:chainEntrySize])
	return e
}

// innerIsZero reports that the proof's record is the oldest version.
func (v proofView) innerIsZero() bool { return hashutil.Hash(v.inner) == hashutil.Zero }

// reconstructLeaf recomputes the Merkle leaf hash that rec must hash to
// under this proof: the record digest is chained with the older-version
// inner hash, then with every newer-version header, then bound to the key.
func (v proofView) reconstructLeaf(rec record.Record) hashutil.Hash {
	h := hashutil.ChainLink(rec.Ts, rec.Digest(), hashutil.Hash(v.inner))
	for i, n := 0, v.numNewer(); i < n; i++ {
		e := v.newerEntry(i)
		h = hashutil.ChainLink(e.Ts, e.RecDigest, h)
	}
	return hashutil.LeafHash(rec.Key, h)
}

// DecodeProof materializes a serialized proof. Verified reads do not call it
// — they check proofs in place (proofView); it serves benchmark/'s ledger.
func DecodeProof(data []byte) (*EmbeddedProof, error) {
	v, err := viewProof(data)
	if err != nil {
		return nil, err
	}
	p := &EmbeddedProof{LeafIndex: v.leafIndex, Inner: hashutil.Hash(v.inner)}
	if n := v.numNewer(); n > 0 {
		p.Newer = make([]ChainEntry, n)
		for i := range p.Newer {
			p.Newer[i] = v.newerEntry(i)
		}
	}
	if n := len(v.path) / merkle.PathNodeSize; n > 0 {
		p.Path = make([]merkle.PathNode, n)
		for i := range p.Path {
			step := v.path[i*merkle.PathNodeSize:]
			p.Path[i].Left = step[0] == 1
			copy(p.Path[i].Hash[:], step[1:merkle.PathNodeSize])
		}
	}
	return p, nil
}

// ReconstructLeaf is proofView.reconstructLeaf over the materialized proof.
func (p *EmbeddedProof) ReconstructLeaf(rec record.Record) hashutil.Hash {
	h := hashutil.ChainLink(rec.Ts, rec.Digest(), p.Inner)
	for _, e := range p.Newer {
		h = hashutil.ChainLink(e.Ts, e.RecDigest, h)
	}
	return hashutil.LeafHash(rec.Key, h)
}

// LeftSiblings extracts the left-side hashes of the path in bottom-up
// order. For the first leaf of a contiguous range these are exactly the
// left-boundary hashes of the range proof — the property that lets the
// untrusted host assemble range proofs purely from embedded per-record
// proofs (§5.2 "the proof of a query can be naturally constructed from the
// Merkle proofs embedded in the data records").
func (p *EmbeddedProof) LeftSiblings() []hashutil.Hash {
	var out []hashutil.Hash
	for _, pn := range p.Path {
		if pn.Left {
			out = append(out, pn.Hash)
		}
	}
	return out
}

// RightSiblings extracts the right-side hashes of the path in bottom-up
// order (the right-boundary hashes of a range proof ending at this leaf).
func (p *EmbeddedProof) RightSiblings() []hashutil.Hash {
	var out []hashutil.Hash
	for _, pn := range p.Path {
		if !pn.Left {
			out = append(out, pn.Hash)
		}
	}
	return out
}
