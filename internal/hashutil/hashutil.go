// Package hashutil provides the domain-separated SHA-256 hashing primitives
// shared by the eLSM digest structures (record hashes, version hash chains,
// Merkle interior nodes, WAL record links, the sealed state's fingerprint,
// a run's key filter).
//
// Every hash is domain-separated with a one-byte tag so that, e.g., a Merkle
// leaf can never be confused with an interior node or a WAL link — a standard
// hardening against cross-context collision attacks on Merkle constructions.
// A leaf is a key's version-chain head, and a chain's oldest link is the
// oldest record's digest, so a leaf is either a record digest (tagRecord) or
// a chain link (tagChain), and either is apart from a node (tagNode).
//
// Every construction has a fixed layout, so it writes its whole preimage into
// one stack buffer and hands it to sum, the package's one SHA-256 front end.
// On amd64 CPUs with the SHA extensions, sum pads the buffer in place and
// compresses all of its blocks in one call of blockSHANI (Go's own SHA-NI
// routine, carried here in sha256_amd64.s); that skips the streaming frame
// of crypto/sha256 (Write, the digest copy in Sum, the FIPS bookkeeping),
// which costs more than the compression of a one- or two-block preimage.
// Everywhere else sum calls sha256.Sum256. Preimages longer than
// stackPreimage (large values) stream through sha256.New. Of,
// StateFingerprint and FilterHash, which no hot path calls (they run once per
// seal or per run), hash through crypto/sha256 directly.
//
// MACKey is HMAC-SHA256 on the same footing (the WAL group tags): its pad
// blocks are compressed once per key, and a tag is the two blocks left.
//
// While a test turns it on (CountCompressions), the package counts the
// 64-byte blocks it compresses. It counts each preimage's padded blocks as
// the SHA-NI path compresses them (a MAC's pads once per key), on every
// path, so a count is the same on any machine and under purego.
package hashutil

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync/atomic"
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
	tagLeaf // reserved: the leaf wrapper of earlier formats (see LeafHash)
	tagNode
	tagWAL
	tagState
	tagFilter
)

// stackPreimage bounds the preimages assembled on the stack and hashed by
// one call of sum. Going through hash.Hash instead costs a heap digest per
// call, a copy of every partial block into its internal buffer and a copy of
// the whole state in Sum; the fixed-layout constructions below (and records
// of ordinary size) are far smaller than this.
const stackPreimage = 256

// stackPadded holds a preimage of stackPreimage bytes after padding.
const stackPadded = (stackPreimage + 9 + 63) &^ 63

// paddedLen is the length of an n-byte preimage after SHA-256 padding: the
// 0x80 byte and the 64-bit bit length, rounded up to whole 64-byte blocks.
func paddedLen(n int) int { return (n + 9 + 63) &^ 63 }

// initialState is SHA-256's initial hash value.
var initialState = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// counting turns the compression counter on; compressions is the counter.
// Off, a hash pays one load and one untaken branch and writes nothing
// shared: an atomic.Bool's Load is a plain load on amd64 and arm64, and
// being atomic it lets a test flip it beside running stores.
var (
	counting     atomic.Bool
	compressions atomic.Uint64
)

// CountCompressions turns the compression counter on or off. Tests use it:
// the cost ledger counts what an operation hashes between two reads of
// Compressions.
func CountCompressions(on bool) { counting.Store(on) }

// Compressions returns the number of 64-byte blocks compressed while
// counting was on.
func Compressions() uint64 { return compressions.Load() }

// count adds the blocks of an n-byte preimage to the counter, if it is on.
func count(n int) {
	if counting.Load() {
		compressions.Add(uint64(paddedLen(n) / 64))
	}
}

// sum hashes buf[:n]. The rest of buf, at least up to paddedLen(n), must be
// zero: with SHA-NI, sum writes the padding there and compresses every block
// in one blockSHANI call.
func sum(buf []byte, n int) Hash {
	count(n)
	if !useSHANI {
		return sha256.Sum256(buf[:n])
	}
	return finish(initialState, buf, n, 0)
}

// finish pads buf[:n], the last n bytes of a preimage whose first done bytes
// (whole blocks) are compressed into dig, and compresses it with SHA-NI. The
// rest of buf, at least up to paddedLen(n), must be zero.
func finish(dig [8]uint32, buf []byte, n, done int) Hash {
	p := buf[:paddedLen(n)]
	p[n] = 0x80
	binary.BigEndian.PutUint64(p[len(p)-8:], uint64(done+n)<<3)
	blockSHANI(&dig, p)
	var out Hash
	for i, w := range dig {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// MACKey is a key of HMAC-SHA256 (RFC 2104) for messages of at most
// MACMaxMessage bytes. It holds the key's inner and outer pad blocks and,
// with SHA-NI, their compressed states, so a tag costs two compressions: the
// inner hash's last block and the outer hash's. Everywhere else Sum hands
// each hash's whole preimage, pad block first, to sha256.Sum256. Either way
// a tag is made on the stack, with no allocation. Make one with NewMACKey.
type MACKey struct {
	pad [2][64]byte  // key ⊕ ipad, key ⊕ opad
	mid [2][8]uint32 // pad compressed (useSHANI only)
}

// MACMaxMessage bounds the messages a MACKey tags: what fits the stack block
// after the inner pad.
const MACMaxMessage = 128 - 9

// NewMACKey returns the MACKey of key. A key longer than a block is hashed
// first, as RFC 2104 says.
func NewMACKey(key []byte) *MACKey {
	if len(key) > 64 {
		h := sha256.Sum256(key)
		key = h[:]
	}
	k := new(MACKey)
	if counting.Load() {
		compressions.Add(2) // the pad blocks
	}
	for i, b := range [2]byte{0x36, 0x5c} {
		copy(k.pad[i][:], key)
		for j := range k.pad[i] {
			k.pad[i][j] ^= b
		}
		if useSHANI {
			k.mid[i] = initialState
			blockSHANI(&k.mid[i], k.pad[i][:])
		}
	}
	return k
}

// Sum returns HMAC-SHA256(key, msg). It panics if msg is longer than
// MACMaxMessage.
func (k *MACKey) Sum(msg []byte) Hash {
	if len(msg) > MACMaxMessage {
		panic("hashutil: MAC message too long")
	}
	var in [128]byte
	inner := k.half(0, in[:], copy(in[:], msg))
	var out [64]byte
	return k.half(1, out[:], copy(out[:], inner[:]))
}

// half hashes pad i followed by buf[:n]; buf past n is zero.
func (k *MACKey) half(i int, buf []byte, n int) Hash {
	count(n)
	if useSHANI {
		return finish(k.mid[i], buf, n, 64)
	}
	var pre [64 + 128]byte
	copy(pre[:], k.pad[i][:])
	copy(pre[64:], buf[:n])
	return sha256.Sum256(pre[:64+n])
}

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
//
// The oldest link is the oldest record's digest itself: ChainLink(ts, d,
// Zero) = d, no hash. The digest already binds the record's key, ts, kind and
// value, and its tag keeps it apart from every link over a non-zero inner, so
// a chain of one version costs its record hash alone. A claim that a record
// is the oldest (a zero inner) thus yields its bare digest, which is not the
// head of any longer chain.
func ChainLink(ts uint64, recDigest Hash, inner Hash) Hash {
	if inner == Zero {
		return recDigest
	}
	const n = 9 + 2*Size
	var buf [128]byte
	buf[0] = tagChain
	binary.BigEndian.PutUint64(buf[1:9], ts)
	copy(buf[9:], recDigest[:])
	copy(buf[9+Size:], inner[:])
	return sum(buf[:], n)
}

// LeafHash is a key's Merkle leaf: its version chain's head, unchanged. The
// head binds the key through the newest version's record digest, and the
// record and chain tags keep every leaf apart from an interior node, so no
// wrapper hash is needed; the function stays as the name of the leaf
// construction for callers that spell it out (the benchmark's replays).
// tagLeaf, the wrapper's tag in earlier formats, stays reserved.
func LeafHash(key []byte, chainHead Hash) Hash { return chainHead }

// NodeHash combines two Merkle children: H(tag ‖ left ‖ right).
func NodeHash(left, right Hash) Hash {
	const n = 1 + 2*Size
	var buf [128]byte
	buf[0] = tagNode
	copy(buf[1:], left[:])
	copy(buf[1+Size:], right[:])
	return sum(buf[:], n)
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

// sum4 hashes a ‖ b ‖ c ‖ d: assembled in a stack buffer of as many blocks
// as the padded preimage needs when it fits, streamed through a hash.Hash
// otherwise (large values). The size classes keep a one-block leaf from
// zeroing stackPadded bytes: with one stackPadded buffer for every length,
// LeafHash measured about 5 % slower (130 against 124 ns).
func sum4(a, b, c, d []byte) Hash {
	switch n := len(a) + len(b) + len(c) + len(d); {
	case n <= 64-9:
		var buf [64]byte
		return sum(buf[:], fill4(buf[:], a, b, c, d))
	case n <= 128-9:
		var buf [128]byte
		return sum(buf[:], fill4(buf[:], a, b, c, d))
	case n <= 192-9:
		var buf [192]byte
		return sum(buf[:], fill4(buf[:], a, b, c, d))
	case n <= stackPreimage:
		var buf [stackPadded]byte
		return sum(buf[:], fill4(buf[:], a, b, c, d))
	}
	count(len(a) + len(b) + len(c) + len(d))
	h := sha256.New()
	h.Write(a)
	h.Write(b)
	h.Write(c)
	h.Write(d)
	var out Hash
	h.Sum(out[:0])
	return out
}

// fill4 copies a ‖ b ‖ c ‖ d to the front of buf and returns its length.
func fill4(buf, a, b, c, d []byte) int {
	p := copy(buf, a)
	p += copy(buf[p:], b)
	p += copy(buf[p:], c)
	return p + copy(buf[p:], d)
}

// RunRoot is one run of a digest forest as StateFingerprint hashes it.
type RunRoot struct {
	ID     uint64
	Level  int
	Leaves int
	Root   Hash
}

// StateFingerprint hashes a sealed trusted state for the monotonic counter
// to bind: H(tag ‖ (id ‖ level u32 ‖ leaves u32 ‖ root)… ‖ walBase ‖
// walAppends ‖ epoch), the runs in ascending ID order (it sorts runs in
// place). Every field has a fixed size, so the preimage has one parse.
func StateFingerprint(runs []RunRoot, walBase, walAppends, epoch uint64) Hash {
	slices.SortFunc(runs, func(a, b RunRoot) int { return cmp.Compare(a.ID, b.ID) })
	buf := append(make([]byte, 0, 1+len(runs)*(16+Size)+24), tagState)
	for _, r := range runs {
		buf = binary.BigEndian.AppendUint64(buf, r.ID)
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Level))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Leaves))
		buf = append(buf, r.Root[:]...)
	}
	buf = binary.BigEndian.AppendUint64(buf, walBase)
	buf = binary.BigEndian.AppendUint64(buf, walAppends)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	count(len(buf))
	return sha256.Sum256(buf)
}

// FilterHash hashes a run's serialized key filter: H(tag ‖ filter). A run's
// digest carries it, so filter bytes read back from the host are held to the
// ones the enclave built.
func FilterHash(filter []byte) Hash {
	h := sha256.New()
	h.Write([]byte{tagFilter})
	h.Write(filter)
	count(1 + len(filter))
	var out Hash
	h.Sum(out[:0])
	return out
}

// Of hashes arbitrary bytes with no tag. Prefer the tagged helpers; this is
// for non-protocol uses (test fixtures, content addressing).
func Of(data []byte) Hash {
	count(len(data))
	return sha256.Sum256(data)
}
