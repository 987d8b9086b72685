package lsm

import (
	"bytes"

	"elsm/internal/blockcache"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// RunIter chains the iterators of a run's tables (which are
// non-overlapping and key-ordered) into one sorted stream of views: the
// untrusted side of a range read over the run, and a compaction's input.
//
// It opens nothing until it is used: SeekGE goes straight to the table and
// block that hold the position, and a stream read from the top opens the
// first table at its first Valid or Next. Moving forward it requests each
// block once. The first error a table iterator reports ends the stream and
// is what Close returns — a failed block read must never pass for the end
// of the run, which a verifier would have to call an omission.
type RunIter struct {
	tables  []*tableHandle
	pins    *blockcache.Pins // what every block read is pinned into; nil: none
	idx     int              // table cur iterates; len(tables) when exhausted or failed
	cur     sstable.Iter     // valid whenever idx < len(tables), once started
	started bool
	err     error
}

var _ record.Iterator = (*RunIter)(nil)

func newRunIter(r *run) *RunIter { return &RunIter{tables: r.tables} }

// start positions an iterator nobody has sought at the run's first record.
func (it *RunIter) start() {
	if !it.started {
		it.SeekGE(nil, record.MaxTs)
	}
}

// settle moves on to the next table's first record while the current table
// is spent, and ends the stream if it stopped on an error instead.
func (it *RunIter) settle() {
	for it.idx < len(it.tables) && !it.cur.Valid() {
		if err := it.cur.Close(); err != nil {
			it.fail(err)
			return
		}
		if it.idx++; it.idx < len(it.tables) {
			it.cur.ResetPinned(it.tables[it.idx].table, it.pins)
			it.cur.SeekGE(nil, record.MaxTs)
		}
	}
}

func (it *RunIter) fail(err error) { it.err, it.idx = err, len(it.tables) }

func (it *RunIter) Valid() bool {
	it.start()
	return it.idx < len(it.tables)
}

func (it *RunIter) Next() {
	if it.Valid() {
		it.cur.Next()
		it.settle()
	}
}

func (it *RunIter) Record() record.Record { return it.cur.Record() }

// Proof returns the handle on the current record's proof (sstable.Iter.Proof).
func (it *RunIter) Proof() sstable.Proof { return it.cur.Proof() }

func (it *RunIter) SeekGE(key []byte, ts uint64) {
	it.started = true
	if it.err != nil {
		return
	}
	if it.idx = seekTable(it.tables, key, ts); it.idx < len(it.tables) {
		it.cur.ResetPinned(it.tables[it.idx].table, it.pins)
		it.cur.SeekGE(key, ts)
		it.settle()
	}
}

// SeekPrev returns the record before the position the last SeekGE found —
// a range read's left-boundary witness — with the handle on its proof, and
// whether there is one. Inside a table it is sstable.Iter.SeekPrev's view;
// when the position opens a table, or lies past the last one, it is the
// table before's last record. Call it before the first Next.
func (it *RunIter) SeekPrev() (prev record.Record, proof sstable.Proof, ok bool, err error) {
	if it.err != nil {
		return prev, proof, false, it.err
	}
	if it.idx < len(it.tables) {
		if prev, proof, ok, err = it.cur.SeekPrev(); err != nil {
			it.fail(err)
		}
		if ok || err != nil {
			return prev, proof, ok, err
		}
	}
	if it.idx == 0 {
		return prev, proof, false, nil
	}
	v, err := it.tables[it.idx-1].table.LastView(it.pins)
	if err != nil {
		it.fail(err)
		return prev, proof, false, err
	}
	return v.Rec, v.Proof, true, nil
}

// Close reports the error that ended the stream, if one did.
func (it *RunIter) Close() error { return it.err }

// mergeSource tags an iterator with the run it drains (MemtableRunID for
// the memtable).
type mergeSource struct {
	runID uint64
	iter  record.Iterator
}

// mergeIter merges several sorted sources into global record order. With
// the handful of sources a compaction has, a linear minimum scan per step
// is faster than a heap.
type mergeIter struct {
	sources []mergeSource
	curSrc  int
	hi      []byte // the stream ends before the first key ≥ hi; nil: open
}

func newMergeIter(sources []mergeSource) *mergeIter {
	m := new(mergeIter)
	m.reset(sources, nil)
	return m
}

// reset starts m over sources, ending before key hi (nil: at their end).
func (m *mergeIter) reset(sources []mergeSource, hi []byte) {
	*m = mergeIter{sources: sources, hi: hi}
	m.findMin()
}

func (m *mergeIter) findMin() {
	m.curSrc = -1
	var best record.Record
	for i := range m.sources {
		it := m.sources[i].iter
		if !it.Valid() {
			continue
		}
		r := it.Record()
		if m.curSrc == -1 || record.CompareRecords(r, best) < 0 {
			m.curSrc = i
			best = r
		}
	}
	if m.curSrc >= 0 && m.hi != nil && bytes.Compare(best.Key, m.hi) >= 0 {
		m.curSrc = -1
	}
}

// Valid reports whether a record is available.
func (m *mergeIter) Valid() bool { return m.curSrc >= 0 }

// Record returns the current minimum record and its source run.
func (m *mergeIter) Record() (record.Record, uint64) {
	s := m.sources[m.curSrc]
	return s.iter.Record(), s.runID
}

// Next advances past the current record.
func (m *mergeIter) Next() {
	m.sources[m.curSrc].iter.Next()
	m.findMin()
}

// Close closes all sources.
func (m *mergeIter) Close() error {
	var first error
	for _, s := range m.sources {
		if err := s.iter.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
