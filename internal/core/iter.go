package core

import (
	"context"

	"elsm/internal/lsm"
)

// DefaultIterChunkKeys is how many distinct keys a streaming iterator pulls
// across the enclave boundary per ECall. Larger chunks amortize world
// switches better; smaller chunks bound the enclave-resident working set.
const DefaultIterChunkKeys = 512

// Iterator streams a range query one result at a time. On authenticated
// stores every record is verified as its chunk crosses the enclave boundary,
// and range completeness is checked chunk by chunk, so arbitrarily large
// ranges run in memory bounded by the chunk size instead of materializing
// the whole result. A verification failure stops the stream: Next returns
// false and Err/Close report the ErrAuthFailed cause.
//
// Every chunk observes the same pinned view: an iterator (and a Scan
// rebased on it) IS a point-in-time observation — the stream pins the
// store's run set (on eLSM-P2, with the runs' trusted digests) and memtable
// view for its lifetime, so writes committed mid-iteration never appear in later chunks
// and background prefetch cannot tear the stream across a version install.
// Iterators must be Closed to release those pins.
//
// Iterators are not safe for concurrent use. The Result returned for each
// position remains valid after further Next calls.
type Iterator interface {
	// Next advances to the next result, returning false when the range is
	// exhausted, Close was called, or an error occurred.
	Next() bool
	// Result returns the current result; only valid after Next returned
	// true.
	Result() Result
	// Err returns the error that stopped the stream, if any.
	Err() error
	// Close releases the iterator and returns the first error encountered
	// (verification failures included).
	Close() error
}

// chunkSource is what a chunked stream reads: a pinned view that fetches the
// next bounded chunk of [cursor, end] at tsq — returning the resume cursor and
// whether the range is exhausted — and is released once, when the stream
// closes. The verified stream (readScratch) and the raw snapshot implement it.
type chunkSource interface {
	fetchChunk(cursor, end []byte, tsq uint64) (out []Result, next []byte, done bool, err error)
	release()
}

// chunkResult is one fetched (and, on authenticated stores, verified)
// chunk.
type chunkResult struct {
	out  []Result
	next []byte
	done bool
	err  error
}

// chunkIter adapts a chunk fetcher into an Iterator with one chunk of
// background prefetch: as soon as chunk N is handed to the consumer, chunk
// N+1 is fetched — and verified — on a goroutine, so by the time the
// consumer drains N its successor is (usually) already waiting. Lookahead
// is bounded to exactly one chunk: the prefetch goroutine sends its single
// result into a buffered channel and exits, so an abandoned iterator leaks
// nothing and the enclave-resident working set stays at one chunk.
//
// A chunk may legally be empty without ending the stream (e.g. all keys in
// it resolved to tombstones), so Next loops until a result or exhaustion.
//
// A non-nil ctx bounds the stream: once cancelled, Next stops fetching
// (reporting ctx.Err() through Err/Close) and no further prefetch is
// launched — a long verified scan can be deadlined or aborted mid-range.
// The source is released exactly once when the iterator is closed (after
// any in-flight prefetch has drained), unpinning the stream's view.
type chunkIter struct {
	ctx      context.Context
	src      chunkSource
	end      []byte
	tsq      uint64
	cursor   []byte
	chunks   chan chunkResult // made by the first prefetch, reused by the rest
	inflight bool
	buf      []Result
	pos      int
	done     bool
	closed   bool
	err      error
}

// newChunkIter streams [start, end] at tsq from src. start and end must not
// change until the stream is closed.
func newChunkIter(ctx context.Context, src chunkSource, start, end []byte, tsq uint64) *chunkIter {
	return &chunkIter{ctx: ctx, src: src, end: end, tsq: tsq, cursor: start, pos: -1}
}

// fetch pulls the chunk at cursor, unless the stream's ctx is done. It reads
// only what the iterator never changes, so the prefetch goroutine may run it.
func (it *chunkIter) fetch(cursor []byte) chunkResult {
	if err := lsm.CtxErr(it.ctx); err != nil {
		return chunkResult{err: err}
	}
	out, next, done, err := it.src.fetchChunk(cursor, it.end, it.tsq)
	return chunkResult{out: out, next: next, done: done, err: err}
}

// startPrefetch launches the fetch of the chunk at it.cursor.
func (it *chunkIter) startPrefetch() {
	if it.chunks == nil {
		it.chunks = make(chan chunkResult, 1)
	}
	it.inflight = true
	go it.prefetch(it.cursor)
}

func (it *chunkIter) prefetch(cursor []byte) { it.chunks <- it.fetch(cursor) }

// nextChunk returns the chunk at it.cursor, from the prefetch in flight if
// one was started, synchronously otherwise.
func (it *chunkIter) nextChunk() chunkResult {
	if it.inflight {
		it.inflight = false
		return <-it.chunks
	}
	return it.fetch(it.cursor)
}

// Next implements Iterator.
func (it *chunkIter) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.pos+1 < len(it.buf) {
		it.pos++
		return true
	}
	for !it.done {
		if it.err = lsm.CtxErr(it.ctx); it.err != nil {
			return false
		}
		res := it.nextChunk()
		if res.err != nil {
			it.err = res.err
			return false
		}
		it.buf, it.pos, it.cursor, it.done = res.out, 0, res.next, res.done
		if !it.done {
			it.startPrefetch()
		}
		if len(res.out) > 0 {
			return true
		}
	}
	return false
}

// Result implements Iterator.
func (it *chunkIter) Result() Result { return it.buf[it.pos] }

// Err implements Iterator.
func (it *chunkIter) Err() error { return it.err }

// Close implements Iterator. A prefetch still in flight is drained so its
// verification outcome is not lost: a tampered chunk the consumer never
// reached still surfaces here. The source is released after the drain, so
// no fetch can observe a released view.
func (it *chunkIter) Close() error {
	if it.closed {
		return it.err
	}
	it.closed = true
	if it.inflight {
		it.inflight = false
		if res := <-it.chunks; res.err != nil && it.err == nil {
			it.err = res.err
		}
	}
	it.src.release()
	return it.err
}

// sliceResultIter serves an already-materialized result set.
type sliceResultIter struct {
	ctx    context.Context
	res    []Result
	pos    int
	err    error
	closed bool
}

// NewSliceIter wraps a materialized result set (and the error that produced
// it) as an Iterator — the fallback for stores without a native streaming
// path. A non-nil ctx stops the stream once cancelled, like a chunked one.
func NewSliceIter(ctx context.Context, res []Result, err error) Iterator {
	return &sliceResultIter{ctx: ctx, res: res, pos: -1, err: err}
}

// Next implements Iterator.
func (it *sliceResultIter) Next() bool {
	if it.closed || it.err != nil || it.pos+1 >= len(it.res) {
		return false
	}
	if it.err = lsm.CtxErr(it.ctx); it.err != nil {
		return false
	}
	it.pos++
	return true
}

// Result implements Iterator.
func (it *sliceResultIter) Result() Result { return it.res[it.pos] }

// Err implements Iterator.
func (it *sliceResultIter) Err() error { return it.err }

// Close implements Iterator.
func (it *sliceResultIter) Close() error {
	it.closed = true
	return it.err
}

// ScanAll drains an iterator into a materialized result slice and closes it
// — the materialized Scan path, rebased on the streaming one. A chunked
// stream is taken a chunk at a time, and a range that fits one chunk is
// returned as that chunk, uncopied.
func ScanAll(it Iterator) ([]Result, error) {
	var out []Result
	if ci, ok := it.(*chunkIter); ok {
		out = ci.drain()
	} else {
		for it.Next() {
			out = append(out, it.Result())
		}
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// drain returns everything the stream has left, whole chunks at a time; a
// stream that is one chunk long hands that chunk over as fetched.
func (it *chunkIter) drain() []Result {
	var out []Result
	for it.Next() {
		rest := it.buf[it.pos:]
		it.pos = len(it.buf) - 1
		if out == nil && it.done {
			return rest
		}
		out = append(out, rest...)
	}
	return out
}

// ---------------------------------------------------------------------------
// eLSM-P2 streaming verified scan

// IterAt streams the newest verified value ≤ tsq of every key in
// [start, end]. The whole stream runs against ONE pinned read view — the
// same unit that backs Snapshot — so the iterator is a point-in-time
// observation: writes committed mid-iteration never surface in later
// chunks, and concurrent flushes or compactions cannot perturb (or tear)
// the stream. Each chunk is fetched and verified inside one ECall:
// per-record Merkle proofs establish integrity and freshness, and the
// chunk's boundary witnesses establish completeness of the covered
// sub-range, so by the time the stream ends the whole range is
// completeness-verified without ever being materialized at once.
//
// A cancelled ctx stops the stream (Err reports the cancellation) and
// prevents further chunk fetches, including the background prefetch. The
// iterator MUST be closed: the view's run pins are held until Close.
func (c *Store) IterAt(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	return c.stream(ctx, nil, start, end, tsq)
}

// stream builds the chunked verified iterator over v, on a reference the
// stream owns; a nil v means a view of the stream's own, pinned here. The
// stream keeps what it needs between chunks in a pooled readScratch — that
// view (or v), and copies of start and end — which Close hands back.
func (c *Store) stream(ctx context.Context, v *readView, start, end []byte, tsq uint64) Iterator {
	g := c.getReadScratch(keyHash(start))
	if v == nil {
		if err := c.pinView(&g.view, true); err != nil {
			c.putReadScratch(g)
			return NewSliceIter(nil, nil, err)
		}
		v = &g.view
	}
	g.stream = v
	g.buf = append(append(g.buf[:0], start...), end...)
	n := len(start)
	return newChunkIter(ctx, g, g.buf[:n:n], g.buf[n:], tsq)
}
