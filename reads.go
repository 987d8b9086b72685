package elsm

import (
	"context"

	"elsm/internal/core"
	"elsm/internal/record"
)

// reads is the verified read API of a Store and of a Snapshot, written once
// over the core.Reader each call runs against — the store's current engine
// or the snapshot's pinned view — and embedded in both. Get and Scan are
// the latest-version, ctx-free spellings of the two primitives GetAt and
// IterAt; the confidentiality layer, when on, wraps exactly those two.
type reads struct {
	enc *encLayer
	src readSource
}

// readSource yields the reader one call runs against. A Store re-reads its
// engine per call (a follower re-bootstrap swaps it); a Snapshot's is fixed.
type readSource interface{ reader() core.Reader }

// Get returns the latest value of key, verified for integrity and
// freshness (and completeness of the "not found" answer).
func (r *reads) Get(key []byte) (Result, error) { return r.GetAtCtx(nil, key, record.MaxTs) }

// GetCtx is Get with cancellation.
func (r *reads) GetCtx(ctx context.Context, key []byte) (Result, error) {
	return r.GetAtCtx(ctx, key, record.MaxTs)
}

// GetAt returns the newest value with timestamp ≤ tsq (on a Snapshot, as of
// the snapshot: tsq is clamped to Ts).
func (r *reads) GetAt(key []byte, tsq uint64) (Result, error) { return r.GetAtCtx(nil, key, tsq) }

// GetAtCtx is GetAt with cancellation.
func (r *reads) GetAtCtx(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if r.enc == nil {
		return r.src.reader().GetAt(ctx, key, tsq)
	}
	ek, ok, err := r.enc.lookupKey(key)
	if err != nil || !ok {
		return Result{}, err
	}
	res, err := r.src.reader().GetAt(ctx, ek, tsq)
	if err != nil || !res.Found {
		return Result{}, err
	}
	return r.enc.openResult(res)
}

// Scan returns the latest value of every key in [start, end], verified for
// completeness: a host that omits a matching record is detected. It is the
// materialized form of Iter — prefer Iter for large ranges, which streams
// the same verified results in bounded memory.
func (r *reads) Scan(start, end []byte) ([]Result, error) { return r.ScanCtx(nil, start, end) }

// ScanCtx is Scan with cancellation: a deadline or cancel mid-range stops
// the underlying verified stream.
func (r *reads) ScanCtx(ctx context.Context, start, end []byte) ([]Result, error) {
	if r.enc == nil {
		return core.ScanAll(r.src.reader().IterAt(ctx, start, end, record.MaxTs))
	}
	return core.ScanAll(r.IterCtx(ctx, start, end))
}

// Iter streams the latest verified value of every key in [start, end].
func (r *reads) Iter(start, end []byte) *Iterator {
	return r.IterAtCtx(nil, start, end, record.MaxTs)
}

// IterCtx is Iter with cancellation: cancelling ctx stops the stream (Err
// reports the cancellation) and aborts the background chunk prefetch —
// the way to deadline a long verified scan.
func (r *reads) IterCtx(ctx context.Context, start, end []byte) *Iterator {
	return r.IterAtCtx(ctx, start, end, record.MaxTs)
}

// IterAt is Iter at a historical timestamp (newest version ≤ tsq per key).
func (r *reads) IterAt(start, end []byte, tsq uint64) *Iterator {
	return r.IterAtCtx(nil, start, end, tsq)
}

// IterAtCtx is IterAt with cancellation.
func (r *reads) IterAtCtx(ctx context.Context, start, end []byte, tsq uint64) *Iterator {
	if r.enc == nil {
		return &Iterator{inner: r.src.reader().IterAt(ctx, start, end, tsq)}
	}
	estart, eend, err := r.enc.rangeBounds(start, end)
	if err != nil {
		return &Iterator{err: err}
	}
	return &Iterator{
		inner: r.src.reader().IterAt(ctx, estart, eend, tsq),
		enc:   r.enc,
		start: append([]byte(nil), start...),
		end:   append([]byte(nil), end...),
	}
}
