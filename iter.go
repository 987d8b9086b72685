package elsm

import "elsm/internal/core"

// Iterator is a streaming verified range read: results arrive one at a
// time, each verified for integrity and freshness as its chunk crosses the
// enclave boundary, with range completeness checked incrementally — a host
// that omits, reorders or substitutes records mid-stream stops the
// iteration with ErrAuthFailed. Unlike Scan, an Iterator over an
// arbitrarily large range runs in memory bounded by the internal chunk
// size.
//
// The stream IS a point-in-time observation: the iterator pins the store's
// digest snapshot, runs and memtable view for its whole lifetime (the same
// machinery as Store.Snapshot), so writes committed mid-iteration never
// surface in later chunks and concurrent flushes or compactions cannot
// perturb the stream. Iterators must be Closed to release those pins.
//
// Usage:
//
//	it := store.Iter(start, end)
//	for it.Next() {
//	    use(it.Key(), it.Value())
//	}
//	if err := it.Close(); err != nil { ... }
//
// Iterators are not safe for concurrent use.
type Iterator struct {
	inner      core.Iterator
	enc        *encLayer
	start, end []byte // plaintext bounds (encryption mode only)
	cur        Result
	err        error
}

// Next advances to the next verified result, returning false at the end of
// the range or on error (check Err or Close).
func (it *Iterator) Next() bool {
	if it.err != nil || it.inner == nil {
		return false
	}
	for it.inner.Next() {
		res := it.inner.Result()
		if it.enc != nil {
			pr, err := it.enc.openResult(res)
			if err != nil {
				it.err = err
				return false
			}
			// OPE bounds may be slightly wider than the plaintext range.
			if string(pr.Key) < string(it.start) || string(pr.Key) > string(it.end) {
				continue
			}
			res = pr
		}
		it.cur = res
		return true
	}
	it.err = it.inner.Err()
	return false
}

// Key returns the current result's key (valid after Next returned true).
func (it *Iterator) Key() []byte { return it.cur.Key }

// Value returns the current result's value.
func (it *Iterator) Value() []byte { return it.cur.Value }

// Ts returns the current result's trusted timestamp.
func (it *Iterator) Ts() uint64 { return it.cur.Ts }

// Result returns the current result.
func (it *Iterator) Result() Result { return it.cur }

// Err returns the error that stopped iteration, if any (ErrAuthFailed
// variants for verification failures).
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator and returns the first error encountered.
func (it *Iterator) Close() error {
	if it.inner == nil {
		return it.err
	}
	cerr := it.inner.Close()
	if it.err != nil {
		return it.err
	}
	return cerr
}
