// Package memtable implements the in-enclave L0 write buffer of the LSM
// store: a skiplist ordered by (key asc, timestamp desc). In eLSM the
// memtable always lives inside the enclave (both P1 and P2 — §4.2 / Table 1:
// the write buffer is small metadata), so its contents are trusted and need
// no proofs; its enclave-memory cost is accounted through an sgx.Region.
package memtable

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"elsm/internal/record"
	"elsm/internal/sgx"
)

const (
	maxHeight  = 12
	branchProb = 4 // 1/4 chance of growing a level
)

type node struct {
	rec  record.Record
	next []*node
}

// Table is a concurrent skiplist memtable. Safe for concurrent use.
type Table struct {
	mu       sync.RWMutex
	head     *node
	height   int
	rnd      *rand.Rand // guarded by mu (write lock)
	bytes    int
	count    int
	frozen   bool
	region   *sgx.Region
	touchOff atomic.Int64
}

// New creates an empty memtable. If enclave is non-nil, the table allocates
// an enclave region and declares its accesses to it; pass nil for untrusted
// placement.
func New(enclave *sgx.Enclave) *Table {
	t := &Table{
		head:   &node{next: make([]*node, maxHeight)},
		height: 1,
		rnd:    rand.New(rand.NewSource(0xe15a)),
	}
	if enclave != nil {
		t.region = enclave.Alloc(0)
	}
	return t
}

func (t *Table) randomHeight() int {
	h := 1
	for h < maxHeight && t.rnd.Intn(branchProb) == 0 {
		h++
	}
	return h
}

// less reports whether node n sorts strictly before (key, ts).
func less(n *node, key []byte, ts uint64) bool {
	return record.Compare(n.rec.Key, n.rec.Ts, key, ts) < 0
}

// Freeze marks the table immutable: it has been handed to a background
// flush, and writes now land in its successor. A Put after Freeze is an
// engine bug — the frozen table is concurrently merged to disk without
// locks, so a late write would be silently lost or torn.
func (t *Table) Freeze() {
	t.mu.Lock()
	t.frozen = true
	t.mu.Unlock()
}

// Put inserts a record. Duplicate (key, ts) pairs overwrite.
func (t *Table) Put(rec record.Record) {
	rec = rec.Clone()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.frozen {
		panic("memtable: Put on a frozen table")
	}

	var prev [maxHeight]*node
	x := t.head
	for level := t.height - 1; level >= 0; level-- {
		for x.next[level] != nil && less(x.next[level], rec.Key, rec.Ts) {
			x = x.next[level]
		}
		prev[level] = x
	}
	if nxt := prev[0].next[0]; nxt != nil && record.Compare(nxt.rec.Key, nxt.rec.Ts, rec.Key, rec.Ts) == 0 {
		t.bytes += rec.Size() - nxt.rec.Size()
		nxt.rec = rec
		t.touch(t.bytes, rec.Size())
		return
	}
	h := t.randomHeight()
	if h > t.height {
		for level := t.height; level < h; level++ {
			prev[level] = t.head
		}
		t.height = h
	}
	n := &node{rec: rec, next: make([]*node, h)}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	t.count++
	grow := rec.Size() + 8*h
	t.bytes += grow
	if t.region != nil {
		t.region.Grow(grow)
	}
	t.touch(t.bytes, rec.Size())
}

// touch declares an enclave-memory access of n bytes. The offset rotates
// through the region so the access pattern spreads across pages, mimicking
// skiplist node placement (race-free: uses an atomic cursor, not t.rnd).
func (t *Table) touch(sizeHint, n int) {
	if t.region == nil || n <= 0 {
		return
	}
	span := sizeHint - n
	off := 0
	if span > 0 {
		off = int(t.touchOff.Add(int64(n*7+64)) % int64(span))
	}
	t.region.Touch(off, n)
}

// findGE returns the first node ≥ (key, ts) in record order. Caller holds a
// read lock.
func (t *Table) findGE(key []byte, ts uint64) *node {
	x := t.head
	for level := t.height - 1; level >= 0; level-- {
		for x.next[level] != nil && less(x.next[level], key, ts) {
			x = x.next[level]
		}
	}
	return x.next[0]
}

// Get returns the newest record of key with Ts ≤ tsq. The boolean reports
// whether any version was found (the record may be a tombstone).
func (t *Table) Get(key []byte, tsq uint64) (record.Record, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// In (key asc, ts desc) order, the first node ≥ (key, tsq) is the
	// newest version of key with Ts ≤ tsq, if its key matches.
	n := t.findGE(key, tsq)
	if n == nil || record.Compare(n.rec.Key, 0, key, 0) != 0 {
		return record.Record{}, false
	}
	t.touch(t.bytes, n.rec.Size())
	return n.rec.Clone(), true
}

// Count returns the number of entries.
func (t *Table) Count() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// ApproxBytes returns the approximate memory footprint, used to trigger
// flushes when the write buffer overflows (§5.3 step w2).
func (t *Table) ApproxBytes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bytes
}

// Release frees the enclave region backing this memtable. The skiplist
// itself stays readable: a pinned snapshot may keep serving reads from a
// flushed (and Released) table, it just no longer counts as enclave
// memory. Taking the write lock serializes with concurrent readers' touch.
func (t *Table) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.region != nil {
		t.region.Free()
		t.region = nil
	}
}

// Iter returns an iterator over a snapshot of the list structure. The
// iterator sees nodes present at creation time (skiplist nodes are
// immutable once linked except for same-(key,ts) overwrites).
func (t *Table) Iter() record.Iterator {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return &iterator{t: t, cur: t.head.next[0]}
}

type iterator struct {
	t   *Table
	cur *node
}

var _ record.Iterator = (*iterator)(nil)

func (it *iterator) Valid() bool { return it.cur != nil }

func (it *iterator) Next() {
	if it.cur != nil {
		it.t.mu.RLock()
		it.cur = it.cur.next[0]
		it.t.mu.RUnlock()
	}
}

func (it *iterator) Record() record.Record { return it.cur.rec }

func (it *iterator) SeekGE(key []byte, ts uint64) {
	it.t.mu.RLock()
	it.cur = it.t.findGE(key, ts)
	it.t.mu.RUnlock()
}

func (it *iterator) Close() error { return nil }
