package core

import (
	"context"

	"elsm/internal/lsm"
)

// BatchOp is one operation of an atomic grouped write: a set, or a
// tombstone when Delete is true.
type BatchOp = lsm.BatchOp

// NewResolvedFuture returns a future that is already accepted and resolved
// (for no-op commits and stores without a durability pipeline).
func NewResolvedFuture(ts uint64, err error) *CommitFuture {
	return lsm.NewResolvedFuture(ts, err)
}

// Commit applies a group of writes in ONE enclave round trip, riding the
// engine's cross-client group commit: every record of the batch is hashed
// into its group's WAL tag, but it shares a single marker-terminated group
// append+fsync — and at most one monotonic-counter bump, paid in
// OnGroupSynced after the group is durable — with every concurrent commit
// that joined the same group. It returns the batch's commit timestamp —
// the trusted timestamp of its last record. A context cancelled while the
// batch still waits in the queue withdraws it (nothing is written); once
// claimed by the committer the batch completes regardless.
func (c *Store) Commit(ctx context.Context, ops []BatchOp) (uint64, error) {
	var ts uint64
	var err error
	c.enclave.ECall(func() { ts, err = c.engine.Commit(ctx, ops) })
	return ts, err
}

// CommitAsync implements KV for eLSM-P2: the batch is appended and digest-
// chained like a synchronous commit, but the caller gets a CommitFuture
// acknowledged at append (timestamp assigned) and resolved at fsync — the
// caller can go on while its group is in the commit worker's fsync.
func (c *Store) CommitAsync(ctx context.Context, ops []BatchOp) (*CommitFuture, error) {
	var fut *CommitFuture
	var err error
	c.enclave.ECall(func() { fut, err = c.engine.CommitAsync(ctx, ops) })
	return fut, err
}

// Commit implements KV for the raw store: one ECall for the whole group.
func (s *RawStore) Commit(ctx context.Context, ops []BatchOp) (uint64, error) {
	var ts uint64
	var err error
	s.ecall(func() { ts, err = s.engine.Commit(ctx, ops) })
	return ts, err
}

// CommitAsync implements KV for the raw store.
func (s *RawStore) CommitAsync(ctx context.Context, ops []BatchOp) (*CommitFuture, error) {
	var fut *CommitFuture
	var err error
	s.ecall(func() { fut, err = s.engine.CommitAsync(ctx, ops) })
	return fut, err
}
