package hashutil

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDomainSeparation(t *testing.T) {
	// The same raw bytes under different constructions must never collide.
	key := []byte("k")
	var h Hash
	rec := RecordDigest(1, key, 1, []byte("v"))
	leaf := LeafHash(key, rec)
	chain := ChainLink(1, rec, Zero)
	node := NodeHash(rec, rec)
	walLink := WALLink(Zero, 1, key, 1, []byte("v"))
	all := []Hash{rec, leaf, chain, node, walLink}
	for i := range all {
		if all[i] == h {
			t.Fatalf("hash %d is zero", i)
		}
		for j := i + 1; j < len(all); j++ {
			if all[i] == all[j] {
				t.Fatalf("constructions %d and %d collide", i, j)
			}
		}
	}
}

func TestRecordDigestBoundary(t *testing.T) {
	// key/value boundary must be unambiguous: ("ab","c") != ("a","bc").
	if RecordDigest(1, []byte("ab"), 1, []byte("c")) == RecordDigest(1, []byte("a"), 1, []byte("bc")) {
		t.Fatal("key/value boundary ambiguity")
	}
}

func TestRecordDigestTsSensitivity(t *testing.T) {
	a := RecordDigest(1, []byte("k"), 1, []byte("v"))
	b := RecordDigest(1, []byte("k"), 2, []byte("v"))
	if a == b {
		t.Fatal("timestamp not bound into record digest")
	}
}

func TestStateDigestOrderSensitive(t *testing.T) {
	r1 := Of([]byte("a"))
	r2 := Of([]byte("b"))
	if StateDigest([]Hash{r1, r2}, Zero) == StateDigest([]Hash{r2, r1}, Zero) {
		t.Fatal("state digest ignores root order")
	}
}

func TestQuickRecordDigestInjective(t *testing.T) {
	f := func(k1, v1, k2, v2 []byte, ts1, ts2 uint64) bool {
		if bytes.Equal(k1, k2) && ts1 == ts2 && bytes.Equal(v1, v2) {
			return true
		}
		return RecordDigest(1, k1, ts1, v1) != RecordDigest(1, k2, ts2, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChainLinkOrderMatters(t *testing.T) {
	d1 := Of([]byte("r1"))
	d2 := Of([]byte("r2"))
	a := ChainLink(2, d2, ChainLink(1, d1, Zero))
	b := ChainLink(1, d1, ChainLink(2, d2, Zero))
	if a == b {
		t.Fatal("chain is order-insensitive")
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Fatal("Zero.IsZero() = false")
	}
	if Of([]byte("x")).IsZero() {
		t.Fatal("nonzero hash reported zero")
	}
}

func TestStringHex(t *testing.T) {
	h := Of([]byte("x"))
	s := h.String()
	if len(s) != 64 {
		t.Fatalf("hex length %d, want 64", len(s))
	}
}

// streamed hashes the concatenation of parts through a hash.Hash, the way
// every construction was computed before preimages were assembled on the
// stack: the reference the fast paths must agree with, byte for byte.
func streamed(parts ...[]byte) Hash {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

func be32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
func be64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

// TestPreimagesUnchanged pins every construction to its documented preimage
// across the stack-buffer boundary (short inputs are assembled on the stack,
// long ones streamed): a digest written by an older build must verify.
func TestPreimagesUnchanged(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	var a, b Hash
	copy(a[:], fill(Size))
	copy(b[:], fill(Size))
	for _, klen := range []int{0, 1, 16, 90, 91, 92, 200, 300} {
		for _, vlen := range []int{0, 1, 100, stackPreimage - 40, stackPreimage, 4096} {
			key, val := fill(klen), fill(vlen)
			ts := rnd.Uint64()
			kind := byte(1 + rnd.Intn(2))
			if got, want := RecordDigest(kind, key, ts, val),
				streamed([]byte{tagRecord}, be32(uint32(klen)), key, be64(ts), []byte{kind}, val); got != want {
				t.Fatalf("RecordDigest(k=%d, v=%d) changed", klen, vlen)
			}
			if got, want := WALLink(a, kind, key, ts, val),
				streamed([]byte{tagWAL, kind}, a[:], be32(uint32(klen)), key, be64(ts), val); got != want {
				t.Fatalf("WALLink(k=%d, v=%d) changed", klen, vlen)
			}
		}
		key := fill(klen)
		if got, want := LeafHash(key, a), streamed([]byte{tagLeaf}, be32(uint32(klen)), key, a[:]); got != want {
			t.Fatalf("LeafHash(k=%d) changed", klen)
		}
	}
	if got, want := ChainLink(7, a, b), streamed([]byte{tagChain}, be64(7), a[:], b[:]); got != want {
		t.Fatal("ChainLink changed")
	}
	if got, want := NodeHash(a, b), streamed([]byte{tagNode}, a[:], b[:]); got != want {
		t.Fatal("NodeHash changed")
	}
}

var sinkHash Hash

func BenchmarkNodeHash(b *testing.B) {
	l, r := Of([]byte("l")), Of([]byte("r"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l = NodeHash(l, r)
	}
	sinkHash = l
}

func BenchmarkRecordDigest(b *testing.B) {
	key, val := make([]byte, 16), make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHash = RecordDigest(1, key, uint64(i), val)
	}
}
