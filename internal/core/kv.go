package core

import (
	"context"

	"elsm/internal/record"
)

// The conveniences over the seven KV primitives, for code that holds an
// interface value (tests, benchmark drivers, tools). They are derived here
// once so no implementation carries them; none is cancellable (nil ctx).

// committer is the write half of KV.
type committer interface {
	Commit(ctx context.Context, ops []BatchOp) (uint64, error)
}

// Put writes one key-value record: a one-op Commit.
func Put(w committer, key, value []byte) (uint64, error) {
	return w.Commit(nil, []BatchOp{{Key: key, Value: value}})
}

// Delete writes one tombstone: a one-op Commit.
func Delete(w committer, key []byte) (uint64, error) {
	return w.Commit(nil, []BatchOp{{Key: key, Delete: true}})
}

// Get returns the latest value of key.
func Get(r Reader, key []byte) (Result, error) { return r.GetAt(nil, key, record.MaxTs) }

// Scan materializes the latest value of every key in [start, end].
func Scan(r Reader, start, end []byte) ([]Result, error) {
	return ScanAll(r.IterAt(nil, start, end, record.MaxTs))
}
