package elsm

import (
	"context"

	"elsm/internal/core"
	"elsm/internal/record"
)

// CommitFuture is the handle of an asynchronous batch commit: acknowledged
// (Ts available) once the commit timestamp is assigned and the group is
// appended to the WAL, resolved (Wait/Done) once it is fsynced and visible
// to reads. A crash between acknowledgment and resolution loses the batch;
// Store.Sync is the barrier that closes the window.
type CommitFuture = core.CommitFuture

// Batch is an atomic multi-op write. Operations are buffered locally and
// applied by Commit in ONE enclave round trip: the engine takes its write
// lock once, every record is hashed into the group's WAL tag, but the
// group shares a single WAL append+fsync and at most one monotonic
// counter bump — amortizing the per-operation enclave-boundary costs that
// make one-at-a-time Put expensive (§5.6.1's write buffer, applied to the
// client API).
//
// A Batch is not safe for concurrent use. After Commit the batch is empty
// and may be reused.
type Batch struct {
	s   *Store
	ops []core.BatchOp
	err error
}

// NewBatch starts an empty write batch against the store.
func (s *Store) NewBatch() *Batch { return &Batch{s: s} }

// Put buffers a key-value write. The slices are copied, so the caller may
// reuse them immediately.
func (b *Batch) Put(key, value []byte) *Batch {
	if b.err != nil {
		return b
	}
	if b.s.enc != nil {
		ek, ev, err := b.s.enc.sealRecord(key, value)
		if err != nil {
			b.err = err
			return b
		}
		b.ops = append(b.ops, core.BatchOp{Key: ek, Value: ev})
		return b
	}
	kv := record.Record{Key: key, Value: value}.Clone() // one allocation for both
	b.ops = append(b.ops, core.BatchOp{Key: kv.Key, Value: kv.Value})
	return b
}

// Delete buffers a tombstone write for key.
func (b *Batch) Delete(key []byte) *Batch {
	if b.err != nil {
		return b
	}
	if b.s.enc != nil {
		ek, err := b.s.enc.sealKey(key)
		if err != nil {
			b.err = err
			return b
		}
		b.ops = append(b.ops, core.BatchOp{Key: ek, Delete: true})
		return b
	}
	b.ops = append(b.ops, core.BatchOp{Key: append([]byte(nil), key...), Delete: true})
	return b
}

// Len reports how many operations are buffered.
func (b *Batch) Len() int { return len(b.ops) }

// Reset discards all buffered operations and any deferred error.
func (b *Batch) Reset() {
	b.ops = nil
	b.err = nil
}

// Commit applies every buffered operation atomically and returns the
// batch's commit timestamp (the trusted timestamp of its last record; the
// batch occupies the contiguous timestamp range ending there). Committing
// an empty batch is a no-op. On success the batch is empty and reusable;
// on failure the operations stay buffered so the caller can inspect or
// re-Commit them (note a failure after the WAL write, e.g. a flush error,
// may already have logged the records — recovery semantics then apply).
func (b *Batch) Commit() (uint64, error) { return b.CommitCtx(nil) }

// CommitCtx is Commit with cancellation: a context cancelled while the
// batch still waits in the group-commit queue withdraws it (nothing is
// written, the operations stay buffered); once the committer has claimed
// the batch, the commit completes regardless and its outcome is returned.
func (b *Batch) CommitCtx(ctx context.Context) (uint64, error) {
	if b.err != nil {
		return 0, b.err
	}
	if len(b.ops) == 0 {
		return 0, nil
	}
	if b.s.readOnly.Load() {
		return 0, ErrReadOnlyReplica
	}
	ts, err := b.s.base().Commit(ctx, b.ops)
	if err != nil {
		return 0, err
	}
	b.ops = nil
	return ts, nil
}

// CommitAsync commits the batch with pipelined durability: it returns a
// CommitFuture as soon as the batch is admitted to the commit pipeline
// (the context bounds only the admission wait against
// Options.MaxAsyncCommitBacklog). The future is acknowledged when the
// batch's trusted timestamp is assigned and its group is appended to the
// WAL — at which point the committer is already pipelining the next
// group's append with this group's fsync — and resolved when the batch is
// durable and visible. On success the batch is empty and reusable
// immediately; on admission failure the operations stay buffered.
func (b *Batch) CommitAsync(ctx context.Context) (*CommitFuture, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.ops) == 0 {
		// Parity with Commit: an empty batch is a no-op with a zero
		// timestamp, not an acknowledgment of someone else's commit.
		return core.NewResolvedFuture(0, nil), nil
	}
	if b.s.readOnly.Load() {
		return nil, ErrReadOnlyReplica
	}
	fut, err := b.s.base().CommitAsync(ctx, b.ops)
	if err != nil {
		return nil, err
	}
	b.ops = nil
	return fut, nil
}
