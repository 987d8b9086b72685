// Package record defines the key-value record representation shared by
// every storage layer (memtable, WAL, SSTables, merge iterators, the
// authenticated core): a user key, a trusted timestamp assigned inside the
// enclave, a kind (set or tombstone), the value, and an optional embedded
// authentication proof (§5.2: "each record is augmented with its eLSM proof").
//
// Ordering: records sort by user key ascending, then by timestamp
// descending, so the first record of a key encountered in sorted order is
// the newest version — the property behind eLSM's early-stop GET.
package record

import (
	"bytes"
	"fmt"

	"elsm/internal/hashutil"
)

// Kind discriminates sets from tombstones. Values start at one so the zero
// Kind is detectably invalid.
type Kind uint8

const (
	// KindSet is a normal key-value write.
	KindSet Kind = iota + 1
	// KindDelete is a tombstone: the key was deleted at this timestamp.
	// Compaction physically drops tombstoned versions at the bottom level
	// (§5.4 "Handling Deletes").
	KindDelete
)

func (k Kind) String() string {
	switch k {
	case KindSet:
		return "set"
	case KindDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MaxTs queries "the latest version".
const MaxTs = ^uint64(0)

// Record is one versioned key-value entry.
type Record struct {
	Key   []byte
	Ts    uint64
	Kind  Kind
	Value []byte
	// Proof is the serialized embedded authentication proof attached by
	// the eLSM layer during authenticated compaction; empty in unsecured
	// stores and in the memtable (L0 is inside the enclave and trusted).
	Proof []byte
}

// Digest returns the record's cryptographic digest (proof excluded: the
// proof authenticates the record, not vice versa).
func (r Record) Digest() hashutil.Hash {
	return hashutil.RecordDigest(byte(r.Kind), r.Key, r.Ts, r.Value)
}

// Clone returns a deep copy (style guide: copy slices at boundaries). Key,
// value and proof share one allocation, each as a capacity-limited subslice
// so an append to one cannot reach the next; empty fields stay nil.
func (r Record) Clone() Record {
	buf := make([]byte, 0, len(r.Key)+len(r.Value)+len(r.Proof))
	take := func(src []byte) []byte {
		if len(src) == 0 {
			return nil
		}
		start := len(buf)
		buf = append(buf, src...)
		return buf[start:len(buf):len(buf)]
	}
	return Record{Key: take(r.Key), Ts: r.Ts, Kind: r.Kind, Value: take(r.Value), Proof: take(r.Proof)}
}

// Size returns the approximate in-memory footprint in bytes.
func (r Record) Size() int {
	return len(r.Key) + len(r.Value) + len(r.Proof) + 16
}

// Compare orders (aKey, aTs) against (bKey, bTs): key ascending, timestamp
// descending.
func Compare(aKey []byte, aTs uint64, bKey []byte, bTs uint64) int {
	if c := bytes.Compare(aKey, bKey); c != 0 {
		return c
	}
	switch {
	case aTs > bTs:
		return -1
	case aTs < bTs:
		return 1
	default:
		return 0
	}
}

// CompareRecords orders two records.
func CompareRecords(a, b Record) int {
	return Compare(a.Key, a.Ts, b.Key, b.Ts)
}

// Iterator walks records in sorted order. Implementations are not safe for
// concurrent use.
type Iterator interface {
	// Valid reports whether the iterator is positioned at a record.
	Valid() bool
	// Next advances to the following record.
	Next()
	// Record returns the current record. The returned slices are only
	// valid until the next call to Next or SeekGE.
	Record() Record
	// SeekGE positions at the first record ≥ (key, ts) in record order.
	SeekGE(key []byte, ts uint64)
	// Close releases resources.
	Close() error
}
