// Package hashutil provides the domain-separated SHA-256 hashing primitives
// shared by the eLSM digest structures (record hashes, version hash chains,
// Merkle interior nodes, WAL digest chains).
//
// Every hash is domain-separated with a one-byte tag so that, e.g., a Merkle
// leaf can never be confused with an interior node or a WAL link — a standard
// hardening against cross-context collision attacks on Merkle constructions.
package hashutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Size is the digest size in bytes.
const Size = sha256.Size

// Hash is a fixed-size SHA-256 digest.
type Hash [Size]byte

// Zero is the all-zero hash, used as the "absent" sentinel (e.g., the inner
// chain hash of the oldest version of a key).
var Zero Hash

// IsZero reports whether h is the all-zero sentinel.
func (h Hash) IsZero() bool { return h == Zero }

// String returns the hex encoding (handy in tests and logs).
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Domain-separation tags. Start at one so the zero byte is never a valid tag
// (style guide: start enums at one).
const (
	tagRecord byte = iota + 1
	tagChain
	tagLeaf
	tagNode
	tagWAL
	tagState
)

// stackPreimage bounds the preimages assembled on the stack and hashed with
// one sha256.Sum256 call. Going through hash.Hash instead costs a heap
// digest per call, a copy of every partial block into its internal buffer
// and a copy of the whole state in Sum; the fixed-layout constructions below
// (and records of ordinary size) are far smaller than this.
const stackPreimage = 256

// RecordDigest hashes one key-value record:
// H(tag ‖ len(k) ‖ k ‖ ts ‖ kind ‖ v). The explicit length prefix prevents
// key/value boundary ambiguity; the kind byte leads the digested value so a
// tombstone can never be confused with a set of the same value.
func RecordDigest(kind byte, key []byte, ts uint64, value []byte) Hash {
	var hdr [5]byte
	hdr[0] = tagRecord
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(key)))
	var mid [9]byte
	binary.BigEndian.PutUint64(mid[:8], ts)
	mid[8] = kind
	return sum4(hdr[:], key, mid[:], value)
}

// ChainLink extends a same-key version hash chain by one (newer) record:
// H(tag ‖ ts ‖ recDigest ‖ inner). The paper builds the chain with the
// oldest record innermost, so presenting any stale version forces the prover
// to reveal the headers (ts, digest) of every newer version — which is how
// the enclave detects freshness violations (§5.3.1 Case 1).
func ChainLink(ts uint64, recDigest Hash, inner Hash) Hash {
	var buf [9 + 2*Size]byte
	buf[0] = tagChain
	binary.BigEndian.PutUint64(buf[1:9], ts)
	copy(buf[9:], recDigest[:])
	copy(buf[9+Size:], inner[:])
	return sha256.Sum256(buf[:])
}

// LeafHash wraps a completed version chain (or single-record digest) as a
// Merkle leaf, binding the user key so non-membership proofs can compare
// keys: H(tag ‖ len(k) ‖ k ‖ chainHead).
func LeafHash(key []byte, chainHead Hash) Hash {
	var hdr [5]byte
	hdr[0] = tagLeaf
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(key)))
	return sum4(hdr[:], key, chainHead[:], nil)
}

// NodeHash combines two Merkle children: H(tag ‖ left ‖ right).
func NodeHash(left, right Hash) Hash {
	var buf [1 + 2*Size]byte
	buf[0] = tagNode
	copy(buf[1:], left[:])
	copy(buf[1+Size:], right[:])
	return sha256.Sum256(buf[:])
}

// WALLink extends the write-ahead-log digest chain:
// dig' = H(tag ‖ kind ‖ dig ‖ len(k) ‖ k ‖ ts ‖ v) (paper §5.3 step w1).
func WALLink(dig Hash, kind byte, key []byte, ts uint64, value []byte) Hash {
	var hdr [2 + Size + 4]byte
	hdr[0], hdr[1] = tagWAL, kind
	copy(hdr[2:], dig[:])
	binary.BigEndian.PutUint32(hdr[2+Size:], uint32(len(key)))
	var tsb [8]byte
	binary.BigEndian.PutUint64(tsb[:], ts)
	return sum4(hdr[:], key, tsb[:], value)
}

// sum4 hashes a ‖ b ‖ c ‖ d: assembled on the stack when it fits, streamed
// through a hash.Hash otherwise (large values).
func sum4(a, b, c, d []byte) Hash {
	n := len(a) + len(b) + len(c) + len(d)
	if n <= stackPreimage {
		var buf [stackPreimage]byte
		p := copy(buf[:], a)
		p += copy(buf[p:], b)
		p += copy(buf[p:], c)
		copy(buf[p:], d)
		return sha256.Sum256(buf[:n])
	}
	h := sha256.New()
	h.Write(a)
	h.Write(b)
	h.Write(c)
	h.Write(d)
	var out Hash
	h.Sum(out[:0])
	return out
}

// StateDigest binds an ordered list of level roots plus the WAL digest into
// one dataset-wide hash, which the rollback defence (§5.6.1) pins to the
// trusted monotonic counter.
func StateDigest(roots []Hash, walDigest Hash) Hash {
	h := sha256.New()
	h.Write([]byte{tagState})
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], uint32(len(roots)))
	h.Write(buf[:])
	for _, r := range roots {
		h.Write(r[:])
	}
	h.Write(walDigest[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// Of hashes arbitrary bytes with no tag. Prefer the tagged helpers; this is
// for non-protocol uses (test fixtures, content addressing).
func Of(data []byte) Hash { return sha256.Sum256(data) }
