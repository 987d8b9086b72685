package eleos

import (
	"context"
	"errors"

	"elsm/internal/core"
	"elsm/internal/lsm"
)

// Eleos is an in-enclave update-in-place array with no commit pipeline and
// no multi-version snapshots, so CommitAsync degenerates to a synchronous
// commit behind an already-resolved future, Sync flushes the persistence
// stream, and Snapshot is unsupported (the paper's baseline has no
// point-in-time reads to compare against).

// ErrNoSnapshots reports that the baseline cannot pin point-in-time views.
var ErrNoSnapshots = errors.New("eleos: snapshots are not supported by the update-in-place baseline")

// CommitAsync implements core.KV: commits synchronously and returns a
// resolved future (the baseline has no durability pipeline to decouple).
func (s *Store) CommitAsync(ctx context.Context, ops []core.BatchOp) (*core.CommitFuture, error) {
	ts, err := s.Commit(ctx, ops)
	if err != nil {
		return nil, err
	}
	return lsm.NewResolvedFuture(ts, nil), nil
}

// Sync implements core.KV: flushes the buffered persistence stream.
func (s *Store) Sync(ctx context.Context) error {
	if err := s.enter(ctx); err != nil {
		return err
	}
	s.persist()
	return nil
}

// Snapshot implements core.KV.
func (s *Store) Snapshot() (core.Snapshot, error) { return nil, ErrNoSnapshots }
