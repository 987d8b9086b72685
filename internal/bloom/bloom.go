// Package bloom implements Bloom filters: a fast negative test for "is key k
// possibly in this set". Two layers build them. The unsecured store's tables
// carry one per data block (§2 of the paper), so a raw Get skips a block
// that cannot hold its key. The eLSM-P2 enclave builds one per run over the
// keys it has just hashed into the run's Merkle tree and keeps it in trusted
// memory beside the run's digest: its "no" is as good as a non-membership
// proof, so a verified Get skips that run. Build and Append make a filter
// from a key list; New and Add make the same bytes one key at a time.
//
// The implementation follows LevelDB's: k probes derived from one 64-bit
// hash via double hashing, with k chosen from the bits-per-key budget. Add
// and MayContain hash the key with Hash, an unseeded FNV-1a, so the filter
// bytes a table stores do not depend on the process that wrote them.
// AddHash and MayContainHash take the 64-bit hash instead and run the same
// probes over it: a caller that tests one key against many filters — the
// enclave's verified Get walking its runs — hashes the key once, as long as
// it builds and probes each filter with the same hash.
package bloom

import (
	"math"
	"slices"
)

// Filter is an immutable serialized Bloom filter. The last byte stores the
// probe count so readers need no external configuration.
type Filter []byte

// DefaultBitsPerKey matches LevelDB's default of 10 (≈1% false-positive rate).
const DefaultBitsPerKey = 10

// Hash is the 64-bit hash Add and MayContain take of a key: FNV-1a.
func Hash(key []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// Build constructs a filter over the given keys with the given bits-per-key
// budget (0 means DefaultBitsPerKey).
func Build(keys [][]byte, bitsPerKey int) Filter { return Append(nil, keys, bitsPerKey) }

// New returns an empty filter sized for n keys at bitsPerKey (0 means
// DefaultBitsPerKey). Adding those keys gives the bytes Build gives them.
func New(n, bitsPerKey int) Filter { return grow(nil, n, bitsPerKey) }

// Append appends to dst the filter Build gives keys, with no allocation when
// dst has room for it.
func Append(dst []byte, keys [][]byte, bitsPerKey int) []byte {
	start := len(dst)
	dst = grow(dst, len(keys), bitsPerKey)
	f := Filter(dst[start:])
	for _, key := range keys {
		f.Add(key)
	}
	return dst
}

// grow appends to dst an empty filter sized for n keys: its bits, cleared,
// and the probe count.
func grow(dst []byte, n, bitsPerKey int) []byte {
	if bitsPerKey <= 0 {
		bitsPerKey = DefaultBitsPerKey
	}
	// k = ln(2) * bits/key rounds to the optimal probe count.
	k := int(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	bits := n * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	start := len(dst)
	dst = slices.Grow(dst, nBytes+1)[:start+nBytes+1]
	clear(dst[start:])
	dst[start+nBytes] = byte(k)
	return dst
}

// Add sets key's bits in a filter New or Append sized. Adding more keys than
// the filter was sized for keeps it correct and raises its false-positive
// rate.
func (f Filter) Add(key []byte) { f.AddHash(Hash(key)) }

// MayContain reports whether the key is possibly in the set. False means
// definitely absent (Bloom filters never yield false negatives).
func (f Filter) MayContain(key []byte) bool { return f.MayContainHash(Hash(key)) }

// AddHash is Add for a key whose 64-bit hash is h.
func (f Filter) AddHash(h uint64) { f.probe(h, true) }

// MayContainHash is MayContain for a key whose 64-bit hash is h: it answers
// for the keys added with AddHash under the same hash.
func (f Filter) MayContainHash(h uint64) bool {
	if len(f) < 2 {
		return false
	}
	if k := f[len(f)-1]; k < 1 || k > 30 {
		// Treat unknown encodings as "maybe" so lookups stay correct.
		return true
	}
	return f.probe(h, false)
}

// probe visits the k bits of the key with hash h, setting them if set is
// true, and reports whether every one of them was set before.
func (f Filter) probe(h uint64, set bool) bool {
	k := int(f[len(f)-1])
	bits := uint64(len(f)-1) * 8
	delta := h>>33 | h<<31 // rotate for double hashing
	for i := 0; i < k; i++ {
		pos := h % bits
		if set {
			f[pos/8] |= 1 << (pos % 8)
		} else if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
