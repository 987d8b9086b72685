package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync"

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
// witness copy and no hash. It is trusted state, and only verifyMembership
// writes it, after the record's witness verified against the run's trusted
// root and its verified chain showed no newer version in the run.
//
// An entry says "in the run whose Merkle root is R, the newest version of key
// k is (ts, kind, value)" — a fact about R alone, keyed by R itself and not by
// anything the host supplies. Runs are immutable and roots collision-
// resistant, so an entry can never become false: there is no invalidation,
// and the entries of a retired run simply age out as others overwrite them.
// A Get asks it only for a run its walk has reached (every newer source
// answered nothing), so the entry, when visible at the query time, is that
// run's verified answer.
//
// The table is direct-mapped and of fixed size, recordCacheBytes; a record
// whose key and value do not fit one slot is never cached. Lookups and
// inserts take one of recordCacheStripes locks, never a table-wide one. Safe
// for concurrent use; a nil cache holds nothing.
type recordCache struct {
	seed  maphash.Seed
	locks [recordCacheStripes]sync.Mutex
	slots []recordSlot // slot i is guarded by locks[i%recordCacheStripes]
}

// recordSlot is one entry, recordSlotSize bytes: the run root, the version's
// timestamp and kind, and its key and value inline in kv. Kind 0 is no
// record, so the zero slot matches no lookup.
type recordSlot struct {
	root hashutil.Hash
	ts   uint64
	kind record.Kind
	klen uint8
	vlen uint16
	kv   [recordSlotKV]byte
}

const (
	recordSlotSize     = 256
	recordSlotKV       = recordSlotSize - hashutil.Size - 12 // key and value bytes a slot holds
	recordCacheSlots   = 4096
	recordCacheStripes = 64

	// recordCacheBytes is the fixed size of a recordCache's table, for the
	// owner's enclave-memory accounting.
	recordCacheBytes = recordCacheSlots * recordSlotSize
)

func newRecordCache() *recordCache {
	return &recordCache{seed: maphash.MakeSeed(), slots: make([]recordSlot, recordCacheSlots)}
}

// slot locates the entry for key in the run with root. The root is hash
// output, so its first word is already uniform; a Fibonacci multiply mixes
// it into the key's hash, and the high half of a second multiply maps the
// result onto the table.
func (rc *recordCache) slot(root *hashutil.Hash, key []byte) (*recordSlot, *sync.Mutex) {
	x := (maphash.Bytes(rc.seed, key) ^ binary.LittleEndian.Uint64(root[:8])) * 0x9e3779b97f4a7c15
	i, _ := bits.Mul64(x, recordCacheSlots)
	return &rc.slots[i], &rc.locks[i%recordCacheStripes]
}

// get returns the run's verified answer for key at tsq if the cache holds
// the key's newest version in the run with root and that version is visible
// at tsq: a hit's key and value, copied under the slot's lock into one
// allocation of their own, or, for a tombstone, a Result that is not found.
// A version newer than tsq is a miss: the run may hold an older one.
func (rc *recordCache) get(root *hashutil.Hash, key []byte, tsq uint64) (res Result, ok bool) {
	if rc == nil || len(key) > recordSlotKV {
		return res, false
	}
	s, mu := rc.slot(root, key)
	mu.Lock()
	k := int(s.klen)
	if ok = s.kind != 0 && s.ts <= tsq && s.root == *root && bytes.Equal(s.kv[:k], key); ok && s.kind == record.KindSet {
		kv := make([]byte, k+int(s.vlen))
		copy(kv, s.kv[:len(kv)])
		res = Result{Key: kv[:k:k], Value: kv[k:], Ts: s.ts, Found: true}
	}
	mu.Unlock()
	return res, ok
}

// put records rec as the newest version of its key in the run with root.
// Only verifyMembership calls it, once the record has verified.
func (rc *recordCache) put(root *hashutil.Hash, rec *record.Record) {
	if rc == nil || len(rec.Key)+len(rec.Value) > recordSlotKV {
		return
	}
	s, mu := rc.slot(root, rec.Key)
	mu.Lock()
	s.root, s.ts, s.kind = *root, rec.Ts, rec.Kind
	s.klen, s.vlen = uint8(len(rec.Key)), uint16(len(rec.Value))
	copy(s.kv[copy(s.kv[:], rec.Key):], rec.Value)
	mu.Unlock()
}
