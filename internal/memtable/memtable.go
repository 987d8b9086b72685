// Package memtable implements the in-enclave L0 write buffer of the LSM
// store: a skiplist ordered by (key asc, timestamp desc). In eLSM the
// memtable always lives inside the enclave (both P1 and P2 — §4.2 / Table 1:
// the write buffer is small metadata), so its contents are trusted and need
// no proofs; its enclave-memory cost is accounted through an sgx.Region.
//
// A Table has one writer and any number of readers. Put must be called by
// one goroutine at a time — the engine's commit worker, or WAL replay before
// the store is shared. Get, Iter and the iterators take no lock and may run
// beside it: a node is written in full before an atomic store links it, and
// it never changes afterwards, so a reader sees each node whole or not at
// all.
//
// Storage is an arena: key and value bytes are copied once into byte slabs,
// and nodes and their next-pointer towers come from typed slabs. Nothing is
// freed or reused before the whole table is garbage, so the records Get and
// the iterators hand out are views that stay valid for as long as a caller
// holds them. Callers must not modify them.
package memtable

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync/atomic"

	"elsm/internal/record"
	"elsm/internal/sgx"
)

const (
	maxHeight  = 12
	branchProb = 4 // 1/4 chance of growing a level

	// Slab sizes. A byte slab holds the keys and values of many records; a
	// record field larger than a quarter slab gets an allocation of its own,
	// so a slab never wastes more than that at its tail.
	byteSlab  = 16 << 10
	nodeSlab  = 128 // nodes per slab
	towerSlab = 512 // next pointers per slab
)

// node is one record, linked at levels [0, len(next)).
type node struct {
	key, value []byte
	ts         uint64
	kind       record.Kind
	next       []atomic.Pointer[node]
}

// record returns the node's record: a view of the table's slabs.
func (n *node) record() record.Record {
	return record.Record{Key: n.key, Ts: n.ts, Kind: n.kind, Value: n.value}
}

// Table is a single-writer skiplist memtable with lock-free reads.
type Table struct {
	head   node
	height atomic.Int32
	bytes  atomic.Int64
	count  atomic.Int64

	region   atomic.Pointer[sgx.Region]
	touching atomic.Int32 // readers inside touch; Release waits them out
	touchOff atomic.Int64

	// Owned by the writer.
	rnd    *rand.Rand
	frozen bool
	data   []byte                 // current byte slab
	nodes  []node                 // current node slab
	towers []atomic.Pointer[node] // current tower slab
}

// New creates an empty memtable. If enclave is non-nil, the table allocates
// an enclave region and declares its accesses to it; pass nil for untrusted
// placement.
func New(enclave *sgx.Enclave) *Table {
	t := &Table{rnd: rand.New(rand.NewSource(0xe15a))}
	t.head.next = make([]atomic.Pointer[node], maxHeight)
	t.height.Store(1)
	if enclave != nil {
		t.region.Store(enclave.Alloc(0))
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
	return record.Compare(n.key, n.ts, key, ts) < 0
}

// Freeze marks the table immutable: it has been handed to a background
// flush, and writes now land in its successor. A Put after Freeze is an
// engine bug — the frozen table is concurrently merged to disk, so a late
// write would be silently lost. Like Put, it is the writer's call.
func (t *Table) Freeze() { t.frozen = true }

// Put inserts a copy of rec (its Proof is not kept: the memtable is
// trusted). A duplicate (key, ts) replaces the existing node: the new node
// takes over its links at every level, so a concurrent reader sees either
// the old record or the new one.
func (t *Table) Put(rec record.Record) {
	if t.frozen {
		panic("memtable: Put on a frozen table")
	}
	var prev [maxHeight]*node
	height := int(t.height.Load())
	x := &t.head
	for level := height - 1; level >= 0; level-- {
		for {
			nx := x.next[level].Load()
			if nx == nil || !less(nx, rec.Key, rec.Ts) {
				break
			}
			x = nx
		}
		prev[level] = x
	}
	size := rec.Size()
	if old := prev[0].next[0].Load(); old != nil && record.Compare(old.key, old.ts, rec.Key, rec.Ts) == 0 {
		n := t.newNode(rec, len(old.next))
		for level := range n.next {
			n.next[level].Store(old.next[level].Load())
		}
		for level := range n.next {
			prev[level].next[level].Store(n)
		}
		total := t.bytes.Add(int64(size - old.record().Size()))
		t.touch(int(total), size)
		return
	}
	h := t.randomHeight()
	if h > height {
		for level := height; level < h; level++ {
			prev[level] = &t.head
		}
		t.height.Store(int32(h))
	}
	n := t.newNode(rec, h)
	for level := 0; level < h; level++ {
		n.next[level].Store(prev[level].next[level].Load())
	}
	for level := 0; level < h; level++ {
		prev[level].next[level].Store(n)
	}
	t.count.Add(1)
	grow := size + 8*h
	total := t.bytes.Add(int64(grow))
	if r := t.region.Load(); r != nil {
		r.Grow(grow)
	}
	t.touch(int(total), size)
}

// newNode carves an unlinked node of height h for rec out of the slabs.
func (t *Table) newNode(rec record.Record, h int) *node {
	if len(t.nodes) == cap(t.nodes) {
		t.nodes = make([]node, 0, nodeSlab)
	}
	t.nodes = t.nodes[:len(t.nodes)+1]
	n := &t.nodes[len(t.nodes)-1]
	n.key, n.value = t.copyBytes(rec.Key), t.copyBytes(rec.Value)
	n.ts, n.kind = rec.Ts, rec.Kind
	if len(t.towers)+h > cap(t.towers) {
		t.towers = make([]atomic.Pointer[node], 0, towerSlab)
	}
	start := len(t.towers)
	t.towers = t.towers[:start+h]
	n.next = t.towers[start : start+h : start+h]
	return n
}

// copyBytes copies b into the byte slab as a capacity-limited subslice, so
// an append to one field cannot reach the next; empty fields stay nil.
func (t *Table) copyBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if len(b) > byteSlab/4 {
		out := make([]byte, len(b))
		copy(out, b)
		return out
	}
	if len(t.data)+len(b) > cap(t.data) {
		t.data = make([]byte, 0, byteSlab)
	}
	start := len(t.data)
	t.data = append(t.data, b...)
	return t.data[start:len(t.data):len(t.data)]
}

// touch declares an enclave-memory access of n bytes. The offset rotates
// through the region so the access pattern spreads across pages, mimicking
// skiplist node placement (race-free: uses an atomic cursor, not t.rnd).
func (t *Table) touch(sizeHint, n int) {
	t.touching.Add(1)
	if r := t.region.Load(); r != nil && n > 0 {
		span := sizeHint - n
		off := 0
		if span > 0 {
			off = int(t.touchOff.Add(int64(n*7+64)) % int64(span))
		}
		r.Touch(off, n)
	}
	t.touching.Add(-1)
}

// findGE returns the first node ≥ (key, ts) in record order. The node is
// read at level 0 in the same load that shows its predecessor sorts before
// (key, ts), so a concurrent insert cannot slip one in between.
func (t *Table) findGE(key []byte, ts uint64) *node {
	x := &t.head
	var nx *node
	for level := int(t.height.Load()) - 1; level >= 0; level-- {
		for {
			nx = x.next[level].Load()
			if nx == nil || !less(nx, key, ts) {
				break
			}
			x = nx
		}
	}
	return nx
}

// Get returns the newest record of key with Ts ≤ tsq, as a view of the
// table. The boolean reports whether any version was found (the record may
// be a tombstone).
func (t *Table) Get(key []byte, tsq uint64) (record.Record, bool) {
	// In (key asc, ts desc) order, the first node ≥ (key, tsq) is the
	// newest version of key with Ts ≤ tsq, if its key matches.
	n := t.findGE(key, tsq)
	if n == nil || !bytes.Equal(n.key, key) {
		return record.Record{}, false
	}
	rec := n.record()
	t.touch(int(t.bytes.Load()), rec.Size())
	return rec, true
}

// Count returns the number of entries.
func (t *Table) Count() int { return int(t.count.Load()) }

// ApproxBytes returns the approximate memory footprint — Σ(record size +
// 8·height) over the inserted records — used to trigger flushes when the
// write buffer overflows (§5.3 step w2).
func (t *Table) ApproxBytes() int { return int(t.bytes.Load()) }

// Release frees the enclave region backing this memtable. The skiplist
// itself stays readable: a pinned snapshot may keep serving reads from a
// flushed (and Released) table, it just no longer counts as enclave
// memory. A reader that found the region before Release cleared it is
// waited out, so no access is declared on a freed region.
func (t *Table) Release() {
	r := t.region.Swap(nil)
	if r == nil {
		return
	}
	for t.touching.Load() != 0 {
		runtime.Gosched()
	}
	r.Free()
}

// Iter returns an iterator over the table in record order. It takes no
// lock: each step follows the links as they are at that moment, so the
// iterator also sees records inserted after it was created. Callers that
// read at a fixed timestamp skip the records above it.
func (t *Table) Iter() *Iterator {
	it := new(Iterator)
	it.Reset(t)
	return it
}

// Iterator walks a table in record order (see Iter).
type Iterator struct {
	t   *Table
	cur *node
}

var _ record.Iterator = (*Iterator)(nil)

// Reset points it at the first record of t: a reader that keeps an Iterator
// by value walks table after table without allocating.
func (it *Iterator) Reset(t *Table) { *it = Iterator{t: t, cur: t.head.next[0].Load()} }

func (it *Iterator) Valid() bool { return it.cur != nil }

func (it *Iterator) Next() {
	if it.cur != nil {
		it.cur = it.cur.next[0].Load()
	}
}

func (it *Iterator) Record() record.Record { return it.cur.record() }

func (it *Iterator) SeekGE(key []byte, ts uint64) { it.cur = it.t.findGE(key, ts) }

func (it *Iterator) Close() error { return nil }
