// Package shard multiplies a single authenticated store into a
// hash-partitioned fleet: a Router owns N independent core.KV instances —
// each with its own WAL, memtable pair, digest forest, group committer,
// maintenance worker and monotonic counter, under a per-shard directory —
// and re-exports the full verified API over their union.
//
// Partitioning is by stable hash of the key (FNV-1a, masked to a
// power-of-two shard count), so a key's shard never changes and every
// single-key operation routes to exactly one shard's pipeline. Cross-shard
// batches split into per-shard sub-batches committed through each shard's
// group-commit pipeline concurrently — N WAL fsync streams and N counter
// cadences proceed in parallel where a single instance serializes them —
// and range reads merge the per-shard verified chunk streams with a
// loser-tree k-way merge (merge.go) that preserves each shard's
// completeness proof: hash partitions are disjoint and exhaustive, so N
// per-shard complete ranges merge into one complete range.
//
// Trust is per shard: each instance maintains its own Merkle forest, WAL
// key and monotonic counter, so one shard's seal never binds
// another's state and recovery validates each partition independently. The
// router adds no trusted state of its own beyond the (recomputable)
// key-to-shard hash.
//
// Cross-shard writes are atomic per shard (each sub-batch is one
// marker-terminated WAL group) and all-or-error at the router: a commit is
// acknowledged only after every involved shard accepted its sub-batch, and
// reported failed if any shard's pipeline failed. A crash mid-commit can
// durably apply the sub-batches of some shards and tear away others' —
// exactly the window of a single store's unacknowledged group — and each
// surviving sub-batch recovers whole or not at all.
//
// Snapshots (and the iterators/scans built on them) are torn-write free: a
// router snapshot pins all N shard snapshots under a gate that every
// in-flight cross-shard commit holds until it is visible on all its shards,
// and stamps the pin set with the router sequence — so multi-shard reads
// are repeatable and never observe half a batch.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/obs"
	"elsm/internal/record"
)

// DirName is the per-shard subdirectory name inside the store's directory:
// shard i of an N-shard store lives in DirName(i).
func DirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// KeyShard returns the shard index key routes to among n shards (n must be
// a power of two). The hash is FNV-1a over the raw key bytes: stable across
// processes and restarts, so a store must be reopened with the Shards value
// it was created with.
func KeyShard(key []byte, n int) int {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return int(h & uint64(n-1))
}

// Router partitions keys across N independent authenticated stores and
// implements core.KV over their union.
type Router struct {
	shards []core.KV
	// seq is the router-level commit sequence: one tick per write admitted
	// through the router. It orders router snapshots (Snapshot.Ts) — shard
	// timestamps are per-shard and mutually incomparable.
	seq atomic.Uint64
	// gate makes cross-shard batches atomic with respect to snapshots:
	// every multi-shard commit holds a read lock from admission until the
	// batch is durable and visible on all its shards; Snapshot takes the
	// write lock, so the N shard snapshots it pins never capture half a
	// batch. Single-shard operations skip the gate — per-shard atomicity
	// already covers them.
	gate sync.RWMutex
	// obs, when non-nil, receives cross-shard batch end-to-end latencies
	// (the RouterBatch histogram): the router is the only vantage point
	// that sees a multi-shard commit whole.
	obs *obs.Observer
}

var _ core.KV = (*Router)(nil)

// New builds a router over already-opened shards. The shard count must be a
// power of two (the mask-based hash routing depends on it); the order of
// the slice is the shard numbering and must match the on-disk per-shard
// directories across restarts.
func New(shards []core.KV) (*Router, error) {
	n := len(shards)
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("shard: shard count must be a power of two ≥ 1, got %d", n)
	}
	return &Router{shards: shards}, nil
}

// SetObserver routes cross-shard batch latencies to o (nil disables).
// Call before serving traffic; the field is not synchronized.
func (r *Router) SetObserver(o *obs.Observer) { r.obs = o }

// NumShards reports the partition count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard exposes one partition's store (stats aggregation and tests).
func (r *Router) Shard(i int) core.KV { return r.shards[i] }

// route returns the shard owning key.
func (r *Router) route(key []byte) core.KV {
	return r.shards[KeyShard(key, len(r.shards))]
}

// GetAt implements core.KV: one shard's verified GET protocol.
func (r *Router) GetAt(ctx context.Context, key []byte, tsq uint64) (core.Result, error) {
	return r.route(key).GetAt(ctx, key, tsq)
}

// split partitions a batch into per-shard sub-batches, preserving the
// caller's operation order within each shard (later ops on the same key
// must keep their higher timestamps). It returns the indices of the shards
// that received at least one operation.
func (r *Router) split(ops []core.BatchOp) (parts [][]core.BatchOp, involved []int) {
	n := len(r.shards)
	parts = make([][]core.BatchOp, n)
	for _, op := range ops {
		si := KeyShard(op.Key, n)
		if parts[si] == nil {
			involved = append(involved, si)
		}
		parts[si] = append(parts[si], op)
	}
	return parts, involved
}

// Commit implements core.KV. A one-op batch — every Put and Delete — routes
// straight to its key's shard and rides that shard's group-commit pipeline,
// without being split. A larger batch splits into per-shard sub-batches,
// each committed atomically through its shard's pipeline, with the
// per-shard fsyncs proceeding in parallel. The call returns once every
// sub-batch is durable (an all-shards durability barrier), reporting the
// highest per-shard commit timestamp; any shard's failure is the batch's
// outcome. The ctx is checked only BEFORE the router starts admitting:
// cancellation then withdraws the whole batch (nothing written on any
// shard); once admission begins, every sub-batch is admitted and the
// commit completes regardless — the single-store "claimed commits finish"
// contract at batch granularity, so a cancellation can never tear a batch
// across shards. (A shard pipeline failing mid-admission — store closed,
// I/O fault — can still leave the earlier shards' sub-batches applied;
// that is the crash window, and the call reports the failure.)
func (r *Router) Commit(ctx context.Context, ops []core.BatchOp) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	if len(ops) == 1 {
		return r.commitOn(ctx, r.route(ops[0].Key), ops)
	}
	parts, involved := r.split(ops)
	if len(involved) == 1 {
		return r.commitOn(ctx, r.shards[involved[0]], parts[involved[0]])
	}
	if err := lsm.CtxErr(ctx); err != nil {
		return 0, err
	}
	// Cross-shard: hold the snapshot gate until the batch is visible
	// everywhere, so no snapshot pins a state with half of it.
	var start time.Time
	if r.obs != nil {
		start = time.Now()
	}
	r.gate.RLock()
	defer r.gate.RUnlock()
	futs := make([]*lsm.CommitFuture, 0, len(involved))
	var admitErr error
	for _, si := range involved {
		// nil ctx: after the point of no return, admission must not be
		// severable per shard.
		fut, err := r.shards[si].CommitAsync(nil, parts[si])
		if err != nil {
			admitErr = err
			break
		}
		futs = append(futs, fut)
	}
	var maxTs uint64
	firstErr := admitErr
	for _, fut := range futs {
		// nil ctx: admitted sub-batches complete regardless; abandoning the
		// wait would release the gate while siblings are still landing.
		ts, err := fut.Wait(nil)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ts > maxTs {
			maxTs = ts
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	r.seq.Add(1)
	if r.obs != nil {
		r.obs.RouterBatch.ObserveSince(start)
	}
	return maxTs, nil
}

// commitOn commits a batch that lives on one shard, ticking the router
// sequence on success.
func (r *Router) commitOn(ctx context.Context, sh core.KV, ops []core.BatchOp) (uint64, error) {
	ts, err := sh.Commit(ctx, ops)
	if err == nil {
		r.seq.Add(1)
	}
	return ts, err
}

// commitAsyncOn admits a batch that lives on one shard, ticking the router
// sequence on success.
func (r *Router) commitAsyncOn(ctx context.Context, sh core.KV, ops []core.BatchOp) (*core.CommitFuture, error) {
	fut, err := sh.CommitAsync(ctx, ops)
	if err == nil {
		r.seq.Add(1)
	}
	return fut, err
}

// CommitAsync implements core.KV: a one-op batch routes straight to its
// key's shard, as in Commit; otherwise per-shard sub-batches are admitted to
// every involved shard's commit queue, and the returned future is
// the aggregate — acknowledged once every shard accepted (highest per-shard
// timestamp), resolved once every shard is durable. The snapshot gate is
// held by the aggregation goroutine until the whole batch has settled. As
// with Commit, the ctx bounds only the pre-admission check: a
// cancellation before admission withdraws the whole batch; after it, every
// sub-batch is admitted unconditionally so cancellation can never tear the
// batch across shards.
func (r *Router) CommitAsync(ctx context.Context, ops []core.BatchOp) (*core.CommitFuture, error) {
	if len(ops) == 0 {
		return lsm.NewResolvedFuture(0, nil), nil
	}
	if len(ops) == 1 {
		return r.commitAsyncOn(ctx, r.route(ops[0].Key), ops)
	}
	parts, involved := r.split(ops)
	if len(involved) == 1 {
		return r.commitAsyncOn(ctx, r.shards[involved[0]], parts[involved[0]])
	}
	if err := lsm.CtxErr(ctx); err != nil {
		return nil, err
	}
	r.gate.RLock()
	futs := make([]*lsm.CommitFuture, 0, len(involved))
	for _, si := range involved {
		fut, err := r.shards[si].CommitAsync(nil, parts[si])
		if err != nil {
			// A shard pipeline failed mid-admission (store closed, fault):
			// the already-admitted sub-batches cannot be withdrawn. Wait
			// them out (releasing the gate only when the partial batch is
			// settled) and report the failure.
			for _, f := range futs {
				f.Wait(nil)
			}
			r.gate.RUnlock()
			return nil, err
		}
		futs = append(futs, fut)
	}
	r.seq.Add(1)
	return lsm.NewAggregateFuture(futs, r.gate.RUnlock), nil
}

// Sync implements core.KV: the durability barrier fans out to every shard
// in parallel and returns once all N pipelines have drained.
func (r *Router) Sync(ctx context.Context) error {
	errs := make(chan error, len(r.shards))
	for _, sh := range r.shards {
		go func(sh core.KV) { errs <- sh.Sync(ctx) }(sh)
	}
	var firstErr error
	for range r.shards {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// IterAt implements core.KV: the range streams from every shard's
// verified chunk iterator and merges in key order through the loser tree.
// The whole merged stream runs over ONE router snapshot — all N shard views
// pinned atomically under the commit gate — so it is a point-in-time
// observation across shards, and each shard's incremental completeness
// verification carries over: the hash partition is exhaustive, so N
// complete per-shard ranges compose into one complete range.
func (r *Router) IterAt(ctx context.Context, start, end []byte, tsq uint64) core.Iterator {
	snap, err := r.Snapshot()
	if err != nil {
		return core.NewSliceIter(nil, nil, err)
	}
	return snap.(*snapshot).iterAt(ctx, start, end, tsq, func() { snap.Close() })
}

// Snapshot implements core.KV: it pins one snapshot per shard under the
// commit gate — no cross-shard batch is mid-flight while the pins are taken
// — and stamps the set with the router sequence. Reads through it are
// repeatable across all shards and verified exactly like each shard's live
// paths.
//
// The consistent cut has a cost: capture waits for every cross-shard
// commit admitted before it to become durable and visible (and queues
// later cross-shard admissions behind it while waiting) — under a deep
// cross-shard CommitAsync pipeline that is up to the pipeline's drain
// time. Single-key reads and single-shard commits never touch the gate.
func (r *Router) Snapshot() (core.Snapshot, error) {
	r.gate.Lock()
	subs := make([]core.Snapshot, len(r.shards))
	for i, sh := range r.shards {
		sub, err := sh.Snapshot()
		if err != nil {
			for _, open := range subs[:i] {
				open.Close()
			}
			r.gate.Unlock()
			return nil, err
		}
		subs[i] = sub
	}
	seq := r.seq.Load()
	r.gate.Unlock()
	return &snapshot{r: r, seq: seq, subs: subs}, nil
}

// Close implements core.KV: every shard seals its final trusted state.
func (r *Router) Close() error {
	var firstErr error
	for _, sh := range r.shards {
		if err := sh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flusher and loader are the optional per-shard surfaces the router
// re-exports for tooling (benchmarks, bulk ingestion, tests).
type flusher interface{ Flush() error }
type loader interface {
	BulkLoad([]record.Record) error
}

// Flush forces every shard's memtable to disk.
func (r *Router) Flush() error {
	for _, sh := range r.shards {
		if f, ok := sh.(flusher); ok {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// BulkLoad partitions an already-sorted record set by key hash and loads
// each shard's subset through its authenticated bulk path (subsequences of
// a sorted list stay sorted). Record timestamps are preserved as given —
// after a sharded bulk load, per-shard timestamp sequences resume from each
// shard's own maximum.
func (r *Router) BulkLoad(recs []record.Record) error {
	n := len(r.shards)
	parts := make([][]record.Record, n)
	for _, rec := range recs {
		si := KeyShard(rec.Key, n)
		parts[si] = append(parts[si], rec)
	}
	for i, sh := range r.shards {
		if len(parts[i]) == 0 {
			continue
		}
		l, ok := sh.(loader)
		if !ok {
			return fmt.Errorf("shard: shard %d does not support bulk loading", i)
		}
		if err := l.BulkLoad(parts[i]); err != nil {
			return fmt.Errorf("shard: bulk load shard %d: %w", i, err)
		}
	}
	return nil
}

// snapshot is the router's pinned read session: one sub-snapshot per shard,
// captured atomically against cross-shard commits.
type snapshot struct {
	r    *Router
	seq  uint64
	subs []core.Snapshot
	once sync.Once
	cerr error
}

var _ core.Snapshot = (*snapshot)(nil)

// Ts implements core.Snapshot. For a sharded store this is the ROUTER
// sequence at capture, not a record timestamp: per-shard trusted
// timestamps are mutually incomparable, so the router orders snapshots by
// its own commit sequence instead.
func (s *snapshot) Ts() uint64 { return s.seq }

// GetAt implements core.Snapshot: the key's shard answers from its pinned
// view (tsq clamped per shard).
func (s *snapshot) GetAt(ctx context.Context, key []byte, tsq uint64) (core.Result, error) {
	return s.subs[KeyShard(key, len(s.subs))].GetAt(ctx, key, tsq)
}

// IterAt implements core.Snapshot: the merged verified stream over the
// pinned per-shard views. The iterator does not outlive the snapshot's
// pins; callers must keep the snapshot open until the stream closes (the
// public layer's iterators hold their own sub-iterator pins, so this only
// constrains direct core users).
func (s *snapshot) IterAt(ctx context.Context, start, end []byte, tsq uint64) core.Iterator {
	return s.iterAt(ctx, start, end, tsq, nil)
}

// iterAt builds the merged stream, with an optional hook run when it
// closes (the live Iter path releases its backing snapshot through it).
func (s *snapshot) iterAt(ctx context.Context, start, end []byte, tsq uint64, onClose func()) core.Iterator {
	its := make([]core.Iterator, len(s.subs))
	for i, sub := range s.subs {
		its[i] = sub.IterAt(ctx, start, end, tsq)
	}
	return NewMergeIter(its, onClose)
}

// Close implements core.Snapshot: releases every shard's pins. Idempotent.
func (s *snapshot) Close() error {
	s.once.Do(func() {
		for _, sub := range s.subs {
			if err := sub.Close(); err != nil && s.cerr == nil {
				s.cerr = err
			}
		}
	})
	return s.cerr
}
