package hashutil

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDomainSeparation: the same raw bytes under different constructions
// never collide — a record digest, a chain link over a non-zero inner, a
// Merkle node and a WAL link. A leaf is a chain head and the oldest link is
// its record digest, so these four are every hash a run's tree or a log
// holds.
func TestDomainSeparation(t *testing.T) {
	key := []byte("k")
	var h Hash
	rec := RecordDigest(1, key, 1, []byte("v"))
	if ChainLink(1, rec, Zero) != rec || LeafHash(key, rec) != rec {
		t.Fatal("the oldest link and the leaf must be the record digest")
	}
	chain := ChainLink(2, rec, rec)
	node := NodeHash(rec, rec)
	walLink := WALLink(Zero, 1, key, 1, []byte("v"))
	all := []Hash{rec, chain, node, walLink}
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
		if got := LeafHash(fill(klen), a); got != a {
			t.Fatalf("LeafHash(k=%d) is not its chain head", klen)
		}
	}
	if got, want := ChainLink(7, a, b), streamed([]byte{tagChain}, be64(7), a[:], b[:]); got != want {
		t.Fatal("ChainLink changed")
	}
	if got := ChainLink(7, a, Zero); got != a {
		t.Fatal("the oldest link is not its record digest")
	}
	if got, want := NodeHash(a, b), streamed([]byte{tagNode}, a[:], b[:]); got != want {
		t.Fatal("NodeHash changed")
	}
}

// TestStateFingerprintPreimage pins the sealed state's fingerprint to its
// documented preimage — H(tag ‖ (id ‖ level u32 ‖ leaves u32 ‖ root)… ‖
// walBase ‖ walAppends ‖ epoch), the runs in ascending ID order whatever
// order they are given in — so a counter value bound by an older build
// still verifies unless the preimage was changed on purpose.
func TestStateFingerprintPreimage(t *testing.T) {
	var a, b Hash
	copy(a[:], bytes.Repeat([]byte{0xA5}, Size))
	copy(b[:], bytes.Repeat([]byte{0x5A}, Size))
	runs := []RunRoot{{ID: 9, Level: 3, Leaves: 300, Root: b}, {ID: 2, Level: 1, Leaves: 7, Root: a}}
	want := streamed([]byte{tagState},
		be64(2), be32(1), be32(7), a[:], be64(9), be32(3), be32(300), b[:],
		be64(40), be64(52), be64(3))
	if got := StateFingerprint(runs, 40, 52, 3); got != want {
		t.Fatalf("StateFingerprint = %v, want %v", got, want)
	}
	if got, want := StateFingerprint(nil, 0, 0, 0), streamed([]byte{tagState}, be64(0), be64(0), be64(0)); got != want {
		t.Fatalf("empty forest: %v, want %v", got, want)
	}
}

// checkAgainstStreamed compares every construction, built from these inputs,
// with its documented preimage streamed through crypto/sha256.
func checkAgainstStreamed(t *testing.T, key, val []byte, ts uint64, kind byte, a, b Hash) {
	t.Helper()
	klen := be32(uint32(len(key)))
	if got, want := RecordDigest(kind, key, ts, val), streamed([]byte{tagRecord}, klen, key, be64(ts), []byte{kind}, val); got != want {
		t.Fatalf("RecordDigest(k=%d, v=%d) = %v, want %v", len(key), len(val), got, want)
	}
	if got, want := WALLink(a, kind, key, ts, val), streamed([]byte{tagWAL, kind}, a[:], klen, key, be64(ts), val); got != want {
		t.Fatalf("WALLink(k=%d, v=%d) = %v, want %v", len(key), len(val), got, want)
	}
	if got := LeafHash(key, a); got != a {
		t.Fatalf("LeafHash(k=%d) = %v, want its chain head %v", len(key), got, a)
	}
	want := a // the oldest link: the record digest
	if b != Zero {
		want = streamed([]byte{tagChain}, be64(ts), a[:], b[:])
	}
	if got := ChainLink(ts, a, b); got != want {
		t.Fatalf("ChainLink = %v, want %v", got, want)
	}
	if got, want := NodeHash(a, b), streamed([]byte{tagNode}, a[:], b[:]); got != want {
		t.Fatalf("NodeHash = %v, want %v", got, want)
	}
}

// TestEveryPaddedLength drives the front end, sum4, through every total
// preimage length from 0 to stackPreimage+1, so each padding boundary
// (55/56 and 119/120 bytes, …) and the switch to streaming are crossed, and
// checks it and each variable-length construction the length admits against
// the streamed reference.
func TestEveryPaddedLength(t *testing.T) {
	t.Logf("SHA-NI: %v", useSHANI)
	rnd := rand.New(rand.NewSource(2))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	var a, b Hash
	copy(a[:], fill(Size))
	copy(b[:], fill(Size))
	ts := rnd.Uint64()
	for n := 0; n <= stackPreimage+1; n++ {
		data := fill(n)
		i, j, k := n/4, n/2, 3*n/4
		if got, want := sum4(data[:i], data[i:j], data[j:k], data[k:]), streamed(data); got != want {
			t.Fatalf("sum4(%d bytes) = %v, want %v", n, got, want)
		}
		// Split what the fixed fields leave between key and value.
		for _, fixed := range []int{5 + 8 + 1, 2 + Size + 4 + 8, 5 + Size} {
			if rest := n - fixed; rest >= 0 {
				key := data[:rest/3]
				checkAgainstStreamed(t, key, data[len(key):rest], ts, 1, a, b)
			}
		}
	}
}

// FuzzHashPrimitives checks every construction against the streamed
// reference on fuzz-chosen inputs.
func FuzzHashPrimitives(f *testing.F) {
	f.Add([]byte("k"), []byte("v"), uint64(1), byte(1), []byte("a"), []byte("b"))
	f.Add(make([]byte, 90), make([]byte, 300), uint64(1)<<63, byte(2), make([]byte, Size), []byte{})
	f.Add([]byte{}, make([]byte, stackPreimage-14), ^uint64(0), byte(0), []byte{0xff}, make([]byte, 40))
	f.Add([]byte("k"), []byte("v"), uint64(9), byte(1), []byte("a"), []byte("b")[:0])
	f.Fuzz(func(t *testing.T, key, val []byte, ts uint64, kind byte, ab, bb []byte) {
		var a, b Hash
		copy(a[:], ab)
		copy(b[:], bb)
		checkAgainstStreamed(t, key, val, ts, kind, a, b)
	})
}

// TestCompressionCount pins what each construction costs in compressed
// blocks, and that nothing is counted while counting is off.
func TestCompressionCount(t *testing.T) {
	d := RecordDigest(1, []byte("k"), 1, make([]byte, 100)) // 5+1+9+100 bytes
	k := NewMACKey([]byte("key"))
	cases := []struct {
		name string
		hash func()
		want uint64
	}{
		{"record of 115 bytes", func() { RecordDigest(1, []byte("k"), 1, make([]byte, 100)) }, 2},
		{"record of 1 015 bytes", func() { RecordDigest(1, []byte("k"), 1, make([]byte, 1000)) }, 16},
		{"oldest chain link", func() { ChainLink(1, d, Zero) }, 0},
		{"chain link", func() { ChainLink(1, d, d) }, 2},
		{"leaf", func() { LeafHash([]byte("k"), d) }, 0},
		{"node", func() { NodeHash(d, d) }, 2},
		{"MAC key", func() { NewMACKey([]byte("key")) }, 2},
		{"MAC tag", func() { k.Sum(make([]byte, 40)) }, 2},
		{"fingerprint of one run", func() { StateFingerprint([]RunRoot{{ID: 1, Root: d}}, 0, 0, 0) }, 2},
	}
	for _, c := range cases {
		before := Compressions()
		c.hash()
		if got := Compressions() - before; got != 0 {
			t.Fatalf("%s: %d blocks counted while counting is off", c.name, got)
		}
		CountCompressions(true)
		c.hash()
		CountCompressions(false)
		if got := Compressions() - before; got != c.want {
			t.Errorf("%s: %d blocks, want %d", c.name, got, c.want)
		}
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
	reportPerBlock(b, 1+2*Size)
}

func BenchmarkRecordDigest(b *testing.B) {
	key, val := make([]byte, 16), make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkHash = RecordDigest(1, key, uint64(i), val)
	}
	reportPerBlock(b, 5+16+9+100)
}

func BenchmarkLeafHash(b *testing.B) {
	key := make([]byte, 16)
	h := Of([]byte("head"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h = LeafHash(key, h)
	}
	sinkHash = h
	reportPerBlock(b, 5+16+Size)
}

func BenchmarkChainLink(b *testing.B) {
	d, h := Of([]byte("rec")), Zero
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h = ChainLink(uint64(i), d, h)
	}
	sinkHash = h
	reportPerBlock(b, 9+2*Size)
}

func BenchmarkWALLink(b *testing.B) {
	key, val := make([]byte, 16), make([]byte, 100)
	dig := Zero
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dig = WALLink(dig, 1, key, uint64(i), val)
	}
	sinkHash = dig
	reportPerBlock(b, 2+Size+4+16+8+100)
}

// TestMACMatchesHMAC holds MACKey to crypto/hmac over random keys (empty,
// within a block, longer than one) and messages of every length it takes,
// and checks that a tag allocates nothing.
func TestMACMatchesHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(100))
		msg := make([]byte, i%(MACMaxMessage+1))
		rng.Read(key)
		rng.Read(msg)
		ref := hmac.New(sha256.New, key)
		ref.Write(msg)
		if got := NewMACKey(key).Sum(msg); !bytes.Equal(got[:], ref.Sum(nil)) {
			t.Fatalf("key of %d bytes, message of %d: MAC differs from crypto/hmac", len(key), len(msg))
		}
	}
	k, msg := NewMACKey([]byte("key")), make([]byte, 40)
	if allocs := testing.AllocsPerRun(100, func() { sinkHash = k.Sum(msg) }); allocs != 0 {
		t.Fatalf("a MAC allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkMAC times the tag of one WAL group: a 40-byte message.
func BenchmarkMAC(b *testing.B) {
	k, msg := NewMACKey(make([]byte, 32)), make([]byte, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg[0] = byte(i)
		sinkHash = k.Sum(msg)
	}
}

// reportPerBlock reports the time per compressed 64-byte block, for an
// n-byte preimage per op.
func reportPerBlock(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*paddedLen(n)/64), "ns/block")
}
