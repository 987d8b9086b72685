// Package bloom implements the per-block Bloom filters that LSM stores
// attach to SSTable data blocks (§2 of the paper): a fast negative test for
// "is key k possibly in this block", avoiding block reads for missing keys.
//
// The implementation follows LevelDB's: k probes derived from one 64-bit
// hash via double hashing, with k chosen from the bits-per-key budget.
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

// hash64 is a 64-bit FNV-1a variant over the key.
func hash64(key []byte) uint64 {
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

// Append appends to dst the filter Build gives keys, with no allocation when
// dst has room for it.
func Append(dst []byte, keys [][]byte, bitsPerKey int) []byte {
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
	bits := len(keys) * bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	start := len(dst)
	dst = slices.Grow(dst, nBytes+1)[:start+nBytes+1]
	filter := dst[start:]
	clear(filter)
	filter[nBytes] = byte(k)
	for _, key := range keys {
		h := hash64(key)
		delta := h>>33 | h<<31 // rotate for double hashing
		for i := 0; i < k; i++ {
			pos := h % uint64(bits)
			filter[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return dst
}

// MayContain reports whether the key is possibly in the set. False means
// definitely absent (Bloom filters never yield false negatives).
func (f Filter) MayContain(key []byte) bool {
	if len(f) < 2 {
		return false
	}
	k := int(f[len(f)-1])
	if k < 1 || k > 30 {
		// Treat unknown encodings as "maybe" so lookups stay correct.
		return true
	}
	bits := (len(f) - 1) * 8
	h := hash64(key)
	delta := h>>33 | h<<31
	for i := 0; i < k; i++ {
		pos := h % uint64(bits)
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
