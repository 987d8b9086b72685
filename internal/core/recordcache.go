package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"unsafe"

	"elsm/internal/hashutil"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/sgx"
)

// VerifiedCaches is one enclave's memory of what its verified reads have
// already proved: the Merkle nodes (merkle.NodeCache) and the records
// (recordCache). Every entry of either is keyed by a trusted run root, so the
// stores of one enclave — all shards of a process — share one. It is trusted
// state and must never be placed in the (untrusted) block cache.
type VerifiedCaches struct {
	nodes   *merkle.NodeCache
	records *recordCache
}

// NewVerifiedCaches allocates the verified caches of one enclave and charges
// their fixed byte budget to the enclave's protected memory, once, the way
// the engine charges table metadata. The charge lasts as long as the enclave,
// as the caches do.
func NewVerifiedCaches(e *sgx.Enclave) *VerifiedCaches {
	e.Alloc(merkle.NodeCacheBytes + recordCacheBytes)
	return &VerifiedCaches{nodes: merkle.NewNodeCache(), records: newRecordCache()}
}

// recordCache remembers the answers verified Gets have proved, so a repeat
// Get of a hot key is answered inside the enclave with no block read, no
// witness copy and no hash. It is trusted state, and only verifyHit
// writes it, after the record's witness verified against the run's trusted
// root and its verified chain showed no newer version in the run.
//
// An entry says "in the run whose Merkle root is R, the newest version of key
// k is (ts, kind, value)" — a fact about R alone, keyed by R itself and not by
// anything the host supplies. Runs are immutable and roots collision-
// resistant, so an entry can never become false: there is no invalidation,
// and the entries of a retired run simply age out as others replace them.
// A Get asks it only for a run its walk has reached (every newer source
// answered nothing), so the entry, when visible at the query time, is that
// run's verified answer.
//
// The cache is set-associative and of fixed size, recordCacheBytes, its
// directories and sketches included. A key's set is chosen by the key alone,
// so every run's entry for the key, and the key's count, live in one set. A
// set packs its entries end to end (recordSet) and evicts the least recently
// used; a newcomer that needs room is admitted only if the set's count-min
// sketch has seen its key more often than every entry it would evict
// (TinyLFU), so a stream of one-time keys passes through without displacing
// the hot ones. The sketch decides only what is cached: every answer comes
// from an entry whose full root and full key match the lookup's. A record
// whose entry does not fit a set is never cached. Every step runs under the
// set's own lock. Safe for concurrent use; a nil cache holds nothing.
type recordCache struct {
	sets []recordSet
}

// recordSet is one set of the cache. Its n entries fill data[:used] end to
// end, each laid out as root 32 ‖ ts 8 ‖ kind 1 ‖ klen 1 ‖ vlen 2 ‖ key ‖
// value; dir locates them in no particular order. sketch holds two rows of
// recordSketchWidth four-bit counters, sixteen to a word, indexed by the
// key's hash alone.
type recordSet struct {
	mu      sync.Mutex
	n       uint8  // entries in dir
	lookups uint8  // lookups since the sketch last halved; halves as it wraps
	used    uint16 // bytes of data the entries fill
	clock   uint32 // ticks on every insert and hit
	sketch  [2][recordSketchWidth / 16]uint64
	dir     [recordSetWays]recordWay
	data    [recordSetData]byte
}

// recordWay locates one entry of its set. The tag is 16 bits of the key's
// hash mixed with the root's second word: a lookup compares the full root
// and key of each entry whose tag matches, and never answers on a tag.
type recordWay struct {
	tag   uint16
	off   uint16 // the entry starts at data[off]
	stamp uint32 // the set's clock when the entry was inserted or last hit
}

const (
	recordSetData      = 2048
	recordSetWays      = 16
	recordSketchWidth  = 64
	recordEntryHead    = hashutil.Size + 12 // root, ts, kind, klen, vlen
	recordEntryKind    = hashutil.Size + 8  // offset of the kind byte
	recordMaxKV        = recordSetData - recordEntryHead
	recordMaxKey       = math.MaxUint8
	recordSketchHalves = 0x7777777777777777 // clears each counter's top bit after a shift

	// recordCacheBytes is the fixed size of a recordCache, for the owner's
	// enclave-memory accounting; recordCacheSets is how many sets fill it.
	recordCacheBytes = 1 << 20
	recordCacheSets  = recordCacheBytes / int(unsafe.Sizeof(recordSet{}))
)

func newRecordCache() *recordCache {
	return &recordCache{sets: make([]recordSet, recordCacheSets)}
}

// cacheable reports whether a record with a key of k bytes and a value of v
// bytes fits one entry: a key of at most 255 bytes, and the header, key and
// value within a set's data.
func cacheable(k, v int) bool { return k <= recordMaxKey && k+v <= recordMaxKV }

// spread mixes a key's keyHash into the hash the cache reads its set, tag
// and sketch bits from (murmur3's finalizer): FNV-1a's high bits barely move
// with a key's last bytes, and the set index is read from the high bits.
func spread(kh uint64) uint64 {
	kh ^= kh >> 33
	kh *= 0xff51afd7ed558ccd
	kh ^= kh >> 33
	kh *= 0xc4ceb9fe1a85ec53
	return kh ^ kh>>33
}

// locate returns the set that holds key's entries, from the key's hash kh
// alone (its high bits, by a multiply onto the table), and the tag of its
// entry for the run with root (its low 16 bits mixed with the root's second
// word; the sketch reads the bits above those).
func (rc *recordCache) locate(root *hashutil.Hash, kh uint64) (*recordSet, uint16) {
	i, _ := bits.Mul64(kh, uint64(recordCacheSets))
	return &rc.sets[i], uint16(kh ^ binary.LittleEndian.Uint64(root[8:16]))
}

// lookup returns the run's verified answer for key, whose keyHash is kh, at
// tsq if the cache holds the key's newest version in the run with root and
// that version is visible at tsq: a hit's key and value, copied under the
// set's lock into one allocation of their own, or, for a tombstone, a Result
// that is not found. A version newer than tsq is a miss: the run may hold an
// older one. Every lookup counts the key in the set's sketch, hit or miss.
func (rc *recordCache) lookup(root *hashutil.Hash, key []byte, kh, tsq uint64) (res Result, ok bool) {
	if rc == nil || !cacheable(len(key), 0) {
		return res, false
	}
	kh = spread(kh)
	s, tag := rc.locate(root, kh)
	s.mu.Lock()
	s.count(kh)
	if i := s.find(tag, root, key); i >= 0 {
		e := s.entry(i)
		if ts := binary.LittleEndian.Uint64(e[hashutil.Size:]); ts <= tsq {
			ok = true
			s.touch(i)
			if record.Kind(e[recordEntryKind]) == record.KindSet {
				k := len(key)
				kv := make([]byte, len(e)-recordEntryHead)
				copy(kv, e[recordEntryHead:])
				res = Result{Key: kv[:k:k], Value: kv[k:], Ts: ts, Found: true}
			}
		}
	}
	s.mu.Unlock()
	return res, ok
}

// insert records rec, whose key's keyHash is kh, as the newest version of
// its key in the run with root, if the set admits it. Only verifyHit calls
// it, once the record has verified.
func (rc *recordCache) insert(root *hashutil.Hash, rec *record.Record, kh uint64) {
	k, v := len(rec.Key), len(rec.Value)
	if rc == nil || !cacheable(k, v) {
		return
	}
	kh = spread(kh)
	s, tag := rc.locate(root, kh)
	size := recordEntryHead + k + v
	s.mu.Lock()
	if i := s.find(tag, root, rec.Key); i >= 0 {
		s.touch(i) // another Get proved the same fact first
	} else if victims, ok := s.victims(kh, rec.Key, size); ok {
		for victims != 0 {
			i := bits.Len16(victims) - 1 // highest first: remove moves only the last way
			s.remove(i)
			victims &^= 1 << i
		}
		e := s.data[s.used : int(s.used)+size]
		copy(e, root[:])
		binary.LittleEndian.PutUint64(e[hashutil.Size:], rec.Ts)
		e[recordEntryKind], e[recordEntryKind+1] = byte(rec.Kind), byte(k)
		binary.LittleEndian.PutUint16(e[recordEntryKind+2:], uint16(v))
		copy(e[recordEntryHead+copy(e[recordEntryHead:], rec.Key):], rec.Value)
		s.dir[s.n] = recordWay{tag: tag, off: s.used}
		s.n++
		s.used += uint16(size)
		s.touch(int(s.n) - 1)
	}
	s.mu.Unlock()
}

// entry returns way i's entry, header, key and value.
func (s *recordSet) entry(i int) []byte {
	e := s.data[s.dir[i].off:]
	return e[:recordEntryHead+int(e[recordEntryKind+1])+int(binary.LittleEndian.Uint16(e[recordEntryKind+2:]))]
}

// entryKey returns the key of entry e.
func entryKey(e []byte) []byte {
	return e[recordEntryHead : recordEntryHead+int(e[recordEntryKind+1])]
}

// find returns the way whose entry is key's in the run with root, or -1.
// The tag only skips entries; the full root and key decide.
func (s *recordSet) find(tag uint16, root *hashutil.Hash, key []byte) int {
	for i := range int(s.n) {
		if s.dir[i].tag != tag {
			continue
		}
		e := s.entry(i)
		if hashutil.Hash(e[:hashutil.Size]) == *root && bytes.Equal(entryKey(e), key) {
			return i
		}
	}
	return -1
}

// touch marks way i the set's most recently used.
func (s *recordSet) touch(i int) {
	s.clock++
	s.dir[i].stamp = s.clock
}

// victims picks the ways an entry of size bytes and key (hash kh) would
// evict, least recently used first, until the entry fits the data and a way
// is free, and reports whether the set admits it: only if the sketch counts
// its key more often than each victim's. A victim holding the same key, for
// another run, yields regardless: the key's Gets now reach the newcomer's
// run. An entry that fits without evicting is always admitted.
func (s *recordSet) victims(kh uint64, key []byte, size int) (ways uint16, ok bool) {
	free, n := recordSetData-int(s.used), int(s.n)
	est := s.estimate(kh)
	for free < size || n == recordSetWays {
		lru, age := -1, uint32(0)
		for i := range int(s.n) {
			if a := s.clock - s.dir[i].stamp; ways&(1<<i) == 0 && (lru < 0 || a > age) {
				lru, age = i, a
			}
		}
		e := s.entry(lru)
		if vk := entryKey(e); !bytes.Equal(vk, key) && s.estimate(spread(keyHash(vk))) >= est {
			return 0, false
		}
		ways |= 1 << lru
		free += len(e)
		n--
	}
	return ways, true
}

// remove deletes way i's entry, closes the gap it leaves in data, and
// moves the last way into slot i.
func (s *recordSet) remove(i int) {
	off, size := int(s.dir[i].off), len(s.entry(i))
	copy(s.data[off:], s.data[off+size:s.used])
	s.used -= uint16(size)
	s.n--
	s.dir[i] = s.dir[s.n]
	for j := range s.dir[:s.n] {
		if int(s.dir[j].off) > off {
			s.dir[j].off -= uint16(size)
		}
	}
}

// sketchAt returns the word and shift of the key's counter in sketch row r.
func (s *recordSet) sketchAt(kh uint64, r int) (*uint64, uint) {
	c := kh >> (16 + 6*r) % recordSketchWidth
	return &s.sketch[r][c/16], uint(c%16) * 4
}

// count adds a lookup of the key with hash kh to the sketch, each counter
// saturating at 15. Every 256th lookup halves all counters, so the counts
// follow what is hot now.
func (s *recordSet) count(kh uint64) {
	for r := range s.sketch {
		if w, sh := s.sketchAt(kh, r); (*w>>sh)&15 != 15 {
			*w += 1 << sh
		}
	}
	if s.lookups++; s.lookups == 0 {
		for r := range s.sketch {
			for j, w := range s.sketch[r] {
				s.sketch[r][j] = (w >> 1) & recordSketchHalves
			}
		}
	}
}

// estimate returns how often the sketch has seen the key with hash kh: the
// smaller of its two counters.
func (s *recordSet) estimate(kh uint64) uint64 {
	est := uint64(15)
	for r := range s.sketch {
		w, sh := s.sketchAt(kh, r)
		est = min(est, (*w>>sh)&15)
	}
	return est
}
