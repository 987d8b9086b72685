package lsm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/wal"
)

// This file implements the cross-client group-commit pipeline. Concurrent
// Commit/CommitAsync callers enqueue their operations — and a follower's
// ApplyReplicated enqueues shipped groups, whose timestamps are checked
// instead of assigned; ONE store goroutine, the commit worker, drains the
// queue into a group and, holding commitMu throughout:
//
//   - appends it: a short engine-lock critical section checks the store is
//     writable and reserves the group's contiguous timestamp range; then,
//     under commitMu alone, the worker hands the group to the listener's
//     OnGroupAppended (the enclave's WAL authenticator, which returns the
//     group's tag), appends the whole group (plus its tagged COMMIT marker)
//     to the untrusted log, and acknowledges async futures (the timestamp is
//     known);
//   - fsyncs the log once for the group, reports the outcome to the
//     listener's OnGroupSynced (the durable WAL frontier and the periodic
//     counter bump), applies it to the
//     memtable (the single writer of its lock-free skiplist) and only then
//     publishes appliedTs, and wakes its waiters / resolves its futures;
//   - freezes the memtable if the group filled it (a pointer swap plus one
//     WAL rename; the scheduler discovers the flush), stalling only if the
//     previous frozen memtable is still being flushed (Stats.FlushStallNanos).
//
// Groups form without a timer: commits arriving while a group is in its
// fsync queue up, and the next drain takes them all. Records become readable
// only once durable. Synchronous commits block until their group completes;
// CommitAsync returns a CommitFuture acknowledged at append and resolved at
// durability, bounded by MaxAsyncCommitBacklog acknowledged-but-not-durable
// commits.
//
// The path allocates nothing per commit once warm: synchronous requests come
// from a pool and are signalled through a reusable channel, an async request
// lives inside its future, and the worker reuses its queue slices, its
// group's record slice and the WAL writer's frame buffer.

// CommitFuture is the handle of an asynchronous commit. It is acknowledged
// ("accepted") when the commit worker has assigned the commit timestamp and
// appended the group to the WAL, and resolved ("done") when the group's
// records are durable on stable storage and visible to reads. A crash
// between acceptance and resolution loses the commit — that is the
// durability trade CommitAsync makes; Sync is the barrier that closes it.
type CommitFuture struct {
	req          commitReq // the commit's request, for CommitAsync
	ts           uint64
	err          error
	acceptErr    error
	acceptedDone bool
	accepted     chan struct{}
	done         chan struct{}
}

func newCommitFuture() *CommitFuture {
	return &CommitFuture{accepted: make(chan struct{}), done: make(chan struct{})}
}

// NewResolvedFuture returns a future that is already accepted and resolved —
// for stores that commit synchronously under the hood.
func NewResolvedFuture(ts uint64, err error) *CommitFuture {
	f := newCommitFuture()
	if err != nil {
		f.fail(err)
		return f
	}
	f.accept(ts)
	f.resolve(nil)
	return f
}

// finishFut completes a future from the commit path: a failure before
// acceptance closes both channels, anything later resolves normally.
func finishFut(f *CommitFuture, err error) {
	if f == nil {
		return
	}
	if !f.acceptedDone {
		f.fail(err)
		return
	}
	f.resolve(err)
}

// accept publishes the commit timestamp (acknowledgment at append).
// acceptedDone is read by the completion path, which runs after acceptance
// on the same goroutine, so no atomicity is needed.
func (f *CommitFuture) accept(ts uint64) {
	f.ts = ts
	f.acceptedDone = true
	close(f.accepted)
}

// resolve publishes the durability outcome.
func (f *CommitFuture) resolve(err error) {
	f.err = err
	close(f.done)
}

// fail marks a commit that never reached acceptance (e.g. store closed).
func (f *CommitFuture) fail(err error) {
	f.acceptErr = err
	f.err = err
	close(f.accepted)
	close(f.done)
}

// Ts blocks until the commit is accepted and returns its commit timestamp
// (the trusted timestamp of the commit's last record).
func (f *CommitFuture) Ts(ctx context.Context) (uint64, error) {
	select {
	case <-f.accepted:
	case <-ctxDone(ctx):
		return 0, ctx.Err()
	}
	if f.acceptErr != nil {
		return 0, f.acceptErr
	}
	return f.ts, nil
}

// Wait blocks until the commit is durable (or failed), returning the commit
// timestamp and the durability outcome.
func (f *CommitFuture) Wait(ctx context.Context) (uint64, error) {
	select {
	case <-f.done:
	case <-ctxDone(ctx):
		return 0, ctx.Err()
	}
	if f.err != nil {
		return 0, f.err
	}
	return f.ts, nil
}

// Done returns a channel closed when the commit is durable or failed.
func (f *CommitFuture) Done() <-chan struct{} { return f.done }

// Err returns the durability outcome; only valid after Done is closed.
func (f *CommitFuture) Err() error { return f.err }

// NewAggregateFuture composes child commit futures into one — the handle of
// a commit split across several independent pipelines (the shard router's
// cross-shard batches). The aggregate is accepted once EVERY child is
// accepted, publishing the highest child timestamp, and resolved once every
// child is durable; the first child failure (at either stage) is the
// aggregate outcome, reported only after all children settle so the caller
// never races a still-in-flight sibling. onSettled, if non-nil, runs
// exactly once after every child has settled and before the aggregate
// resolves — the router uses it to release its snapshot gate, so a snapshot
// taken after the gate opens observes the whole batch on every shard.
func NewAggregateFuture(children []*CommitFuture, onSettled func()) *CommitFuture {
	f := newCommitFuture()
	go func() {
		var maxTs uint64
		var acceptErr error
		for _, c := range children {
			ts, err := c.Ts(nil)
			if err != nil && acceptErr == nil {
				acceptErr = err
			}
			if ts > maxTs {
				maxTs = ts
			}
		}
		if acceptErr == nil {
			// Acknowledge as soon as the slowest child is accepted: every
			// shard has assigned timestamps and appended its group, and the
			// per-shard pipelines are already fsyncing behind us.
			f.accept(maxTs)
		}
		var resolveErr error
		for _, c := range children {
			if _, err := c.Wait(nil); err != nil && resolveErr == nil {
				resolveErr = err
			}
		}
		if onSettled != nil {
			onSettled()
		}
		if acceptErr != nil {
			f.fail(acceptErr)
			return
		}
		f.resolve(resolveErr)
	}()
	return f
}

// ctxDone and CtxErr are the nil-ctx convention of every layer above the
// engine: a nil context means "not cancellable".
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// CtxErr is ctx.Err() for a context that may be nil.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// commitReq is one caller's pending commit: ops the commit worker stamps,
// or recs — a shipped group, ApplyReplicated — whose timestamps the leader
// assigned and the worker only checks. A request with neither is a Sync
// durability barrier: it carries nothing, and completes once every group
// appended before it is durable.
//
// A synchronous request comes from reqPool and goes back once its waiter has
// read ts and err; an async one is the req field of its CommitFuture.
type commitReq struct {
	ops  []BatchOp
	recs []record.Record
	ts   uint64 // commit timestamp (the group's last record of this request)
	err  error
	fut  *CommitFuture // the future this request lives in; nil if synchronous
	// claimed settles the race between the commit worker taking the
	// request and a cancelled waiter withdrawing it: whoever wins the CAS
	// owns the request.
	claimed atomic.Bool
	// done wakes a synchronous request's waiter. The worker sends once and
	// the waiter receives once, so a recycled request reuses it.
	done chan struct{}
	// enqueued stamps queue admission for the queue-wait histogram and the
	// commit-group trace. Zero when instrumentation is off.
	enqueued time.Time
}

// reqPool recycles synchronous requests with their done channels.
var reqPool = sync.Pool{New: func() any { return &commitReq{done: make(chan struct{}, 1)} }}

// newSyncReq takes a cleared synchronous request from the pool.
func newSyncReq() *commitReq { return reqPool.Get().(*commitReq) }

// recycle clears a synchronous request its waiter is done with and pools it.
// A request withdrawn by cancellation must never come here: the worker may
// still hold it in the slice it drained, and a reused request would be
// processed twice.
func (r *commitReq) recycle() {
	r.ops, r.recs, r.ts, r.err = nil, nil, 0, nil
	r.claimed.Store(false)
	r.enqueued = time.Time{}
	reqPool.Put(r)
}

// size is the number of records the request adds to its group.
func (r *commitReq) size() int { return len(r.ops) + len(r.recs) }

// finish completes a request: an async one returns its backlog slot (before
// the future resolves, so gauges never lag callers woken by Done) and
// settles its future; a synchronous one wakes its waiter. The worker must
// not touch the request afterwards — its waiter may already have recycled
// it.
func (s *Store) finish(r *commitReq, err error) {
	if f := r.fut; f != nil {
		s.releaseAsyncSlot()
		finishFut(f, err)
		return
	}
	r.err = err
	r.done <- struct{}{}
}

// finishAll completes every request of a group with the same outcome.
func (s *Store) finishAll(batch []*commitReq, err error) {
	for _, req := range batch {
		s.finish(req, err)
	}
}

// committer is the commit queue and its one worker.
type committer struct {
	mu       sync.Mutex
	cond     *sync.Cond // commit worker wake-up: pending or closed
	pending  []*commitReq
	closed   bool
	workerWG sync.WaitGroup
	// recs is the worker's group buffer, reused from group to group, and
	// tag the tag of the group in it.
	recs []record.Record
	tag  wal.Tag
}

// startCommitter launches the commit worker.
func (s *Store) startCommitter() {
	gc := &s.gc
	gc.cond = sync.NewCond(&gc.mu)
	s.asyncSlots = make(chan struct{}, s.opts.MaxAsyncCommitBacklog)
	gc.workerWG.Add(1)
	go s.commitWorker()
}

// stopCommitter lets the worker finish the group it is on, fails queued
// commits with ErrClosed, and waits for the worker to exit.
func (s *Store) stopCommitter() {
	gc := &s.gc
	gc.mu.Lock()
	gc.closed = true
	gc.cond.Broadcast()
	gc.mu.Unlock()
	gc.workerWG.Wait()
}

// enqueueCommit adds a request to the commit queue, failing fast after
// close.
func (s *Store) enqueueCommit(req *commitReq) error {
	gc := &s.gc
	if s.opts.Obs != nil {
		req.enqueued = time.Now()
	}
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if gc.closed {
		return ErrClosed
	}
	gc.pending = append(gc.pending, req)
	gc.cond.Signal()
	return nil
}

// BatchOp is one operation of a grouped write: a set (Delete false) or a
// tombstone (Delete true, Value ignored).
type BatchOp struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// Commit is the engine's one synchronous write: it applies ops atomically
// through the group-commit pipeline and blocks until they are durable and
// visible. Timestamps are drawn from one contiguous reservation, and the
// whole batch reaches the untrusted log in one marker-terminated group
// append, which the listener chains into its WAL digest — sharing its fsync
// and periodic monotonic-counter bump with any concurrent commits that
// joined the same group. It returns the timestamp
// of the batch's last record (records occupy the contiguous range
// [ts-len(ops)+1, ts]). A context cancelled while the request is still
// queued withdraws it (the write never happens); once the commit worker has
// claimed it, the commit completes regardless and its outcome is returned.
func (s *Store) Commit(ctx context.Context, ops []BatchOp) (uint64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if len(ops) == 0 {
		return s.lastTs.Load(), nil
	}
	req := newSyncReq()
	req.ops = ops
	rec := s.opts.Obs
	if rec == nil {
		return s.awaitReq(ctx, req)
	}
	start := time.Now()
	ts, err := s.awaitReq(ctx, req)
	if err == nil {
		if len(ops) == 1 {
			rec.PutE2E.ObserveSince(start)
		} else {
			rec.CommitE2E.ObserveSince(start)
		}
	}
	return ts, err
}

// Sync is the durability barrier: it blocks until every commit accepted
// before the call — synchronous or asynchronous — is durable on stable
// storage. It rides the queue as an empty group: the worker reaches it only
// after every earlier group's fsync.
func (s *Store) Sync(ctx context.Context) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	_, err := s.awaitReq(ctx, newSyncReq()) // no ops: a pure barrier
	return err
}

// awaitReq enqueues req, a synchronous request from newSyncReq, waits for
// completion or ctx cancellation, and recycles it unless it was withdrawn.
func (s *Store) awaitReq(ctx context.Context, req *commitReq) (uint64, error) {
	if err := s.enqueueCommit(req); err != nil {
		req.recycle()
		return 0, err
	}
	select {
	case <-req.done:
	case <-ctxDone(ctx):
		if req.claimed.CompareAndSwap(false, true) {
			// Still queued: withdrawn before any effect. The commit
			// worker skips claimed requests when draining; the request
			// is left to the garbage collector, not recycled.
			return 0, ctx.Err()
		}
		// The commit worker owns it; the commit will complete.
		<-req.done
	}
	ts, err := req.ts, req.err
	req.recycle()
	return ts, err
}

// CommitAsync enqueues ops and returns a CommitFuture immediately. The
// future is acknowledged once the commit worker has assigned the commit
// timestamp (CommitFuture.Ts) and resolved when the group is durable and
// visible (CommitFuture.Wait / Done). The context bounds only the admission
// wait against MaxAsyncCommitBacklog — once accepted into the queue the
// commit proceeds regardless. The backlog gate is tried before ctx.Done is
// called, and Done is called only if the gate is full: the wire server's
// admission context builds its timer on the first Done and relies on this
// order to admit a write with room in the backlog without one.
func (s *Store) CommitAsync(ctx context.Context, ops []BatchOp) (*CommitFuture, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return NewResolvedFuture(s.lastTs.Load(), nil), nil
	}
	// Backlog gate: a slot is held from admission to durability. Try it
	// before asking for ctx.Done (see above).
	select {
	case s.asyncSlots <- struct{}{}:
	default:
		select {
		case s.asyncSlots <- struct{}{}:
		case <-ctxDone(ctx):
			return nil, ctx.Err()
		}
	}
	s.asyncInFlight.Add(1)
	fut := newCommitFuture()
	fut.req.ops, fut.req.fut = ops, fut
	if err := s.enqueueCommit(&fut.req); err != nil {
		s.releaseAsyncSlot()
		return nil, err
	}
	return fut, nil
}

func (s *Store) releaseAsyncSlot() {
	s.asyncInFlight.Add(-1)
	<-s.asyncSlots
}

// commitWorker drains the queue into groups and commits each in turn,
// skipping requests withdrawn by context cancellation. After close it fails
// whatever is still queued (the documented Close semantics). The queue's
// slice and a spare swap places at every drain, so neither regrows.
func (s *Store) commitWorker() {
	gc := &s.gc
	defer gc.workerWG.Done()
	var spare []*commitReq
	for {
		gc.mu.Lock()
		for len(gc.pending) == 0 && !gc.closed {
			gc.cond.Wait()
		}
		pending, closed := gc.pending, gc.closed
		gc.pending = spare
		gc.mu.Unlock()
		batch := pending[:0]
		for _, req := range pending {
			if req.claimed.CompareAndSwap(false, true) {
				batch = append(batch, req)
			}
		}
		if closed {
			s.finishAll(batch, ErrClosed)
			return
		}
		s.processGroup(batch)
		clear(pending) // hold no finished or withdrawn request
		spare = pending[:0]
	}
}

// processGroup commits one group end to end under commitMu — append, fsync,
// apply, completion — and then freezes the memtable if the group filled it.
// Stage timing is per group, not per record: the clock reads amortize over
// the group's records.
func (s *Store) processGroup(batch []*commitReq) {
	rec := s.opts.Obs
	var start, appendStart time.Time
	if rec != nil {
		// Queue wait is each member's time from enqueue to the worker
		// picking the group up; the group's trace starts at the earliest.
		appendStart = time.Now()
		start = appendStart
		for _, req := range batch {
			if !req.enqueued.IsZero() {
				rec.CommitQueueWait.ObserveDuration(appendStart.Sub(req.enqueued))
				if req.enqueued.Before(start) {
					start = req.enqueued
				}
			}
		}
	}

	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	batch, recs, err := s.appendGroup(batch)
	defer clear(recs) // hold no caller's key or value past the group
	if err != nil {
		s.finishAll(batch, err)
		return
	}
	// Acceptance: timestamps are assigned and the group is in the log
	// (not yet durable) — acknowledge async futures now.
	for _, req := range batch {
		if req.fut != nil {
			req.fut.accept(req.ts)
		}
	}
	var appendNanos, fsyncNanos, applyNanos uint64
	if rec != nil {
		appendNanos = uint64(time.Since(appendStart))
		rec.CommitAppend.Observe(appendNanos)
	}
	if len(recs) > 0 {
		var syncStart time.Time
		if rec != nil {
			syncStart = time.Now()
		}
		var serr error
		s.ocall(func() { serr = s.walW.Sync() })
		if serr != nil {
			// The group's durability is unknown; fail it without applying
			// (records never become visible unless durable). Its WAL
			// records may still be replayed after a crash — the same
			// exposure a failed fsync always had. The listener keeps its
			// previous durable frontier.
			// The failure is STICKY: fsync error semantics mean the kernel
			// may have dropped dirty pages anywhere in the log, so later
			// fsyncs succeeding would prove nothing. Every subsequent
			// commit fails until the store is reopened.
			s.setWALErr(serr)
			s.listener.OnGroupSynced(false)
			s.finishAll(batch, fmt.Errorf("%w: %w", ErrWALSyncFailed, serr))
			return
		}
		s.walSyncs.Add(1)
		s.groupCommits.Add(1)
		s.groupedRecords.Add(uint64(len(recs)))
		var applyStart time.Time
		if rec != nil {
			fsyncNanos = uint64(time.Since(syncStart))
			rec.CommitFsync.Observe(fsyncNanos)
		}
		s.listener.OnGroupSynced(true)
		if rec != nil {
			applyStart = time.Now()
		}
		// commitMu alone covers the apply: s.mem changes only under it,
		// and records above appliedTs are invisible to every read until
		// the store below publishes the group whole.
		lastTs := recs[len(recs)-1].Ts
		mem := s.mem
		for i := range recs {
			mem.Put(recs[i])
		}
		s.appliedTs.Store(lastTs)
		s.notifyGroupSink(recs, lastTs)
		if rec != nil {
			applyNanos = uint64(time.Since(applyStart))
			rec.CommitApply.Observe(applyNanos)
		}
	}
	var resolveStart time.Time
	if rec != nil {
		resolveStart = time.Now()
	}
	s.finishAll(batch, nil)
	if rec != nil && len(recs) > 0 {
		resolveNanos := uint64(time.Since(resolveStart))
		rec.CommitResolve.Observe(resolveNanos)
		total := uint64(time.Since(start))
		traced := rec.ShouldTrace()
		if traced || total >= rec.SlowThresholdNanos() {
			rec.Record(obs.Trace{
				Kind:       "commit-group",
				Seq:        recs[len(recs)-1].Ts,
				Start:      start,
				TotalNanos: total,
				Records:    len(recs),
				Stages: []obs.Stage{
					{Name: "queue-wait", Nanos: uint64(appendStart.Sub(start))},
					{Name: "append", Nanos: appendNanos},
					{Name: "fsync", Nanos: fsyncNanos},
					{Name: "apply", Nanos: applyNanos},
					{Name: "resolve", Nanos: resolveNanos},
				},
			}, traced)
		}
	}
	// Failures surface as bgErr (set inside) or on later commits.
	_ = s.ensureMemtableRoom(false)
}

// appendGroup is the append step (caller holds commitMu): unless the store
// has failed or closed, it stamps the group's timestamps, hands the group to
// the listener, which tags it, and appends the group with its tag to the WAL.
// It returns the requests still in the group — a shipped group that does not
// extend the frontier fails alone, and the rest (barriers, on a follower)
// go on without it — and the records appended, none for a barrier-only
// group. The engine lock covers only the checks and the timestamp
// reservation: every other user of walW holds commitMu, and records above
// appliedTs are invisible, so the append OCall and the hashing run without
// it. A failed append is sticky like a failed fsync: it may have left a torn
// frame in the log, which only recovery's truncation can remove, so no later
// group may follow it; the listener hears of it as of a failed fsync.
func (s *Store) appendGroup(batch []*commitReq) ([]*commitReq, []record.Record, error) {
	batch, total, ts, err := s.reserveGroup(batch)
	if err != nil || total == 0 {
		return batch, nil, err
	}
	recs := s.gc.recs[:0]
	for _, req := range batch {
		for _, op := range req.ops {
			kind := record.KindSet
			value := op.Value
			if op.Delete {
				kind = record.KindDelete
				value = nil
			}
			recs = append(recs, record.Record{Key: op.Key, Ts: ts, Kind: kind, Value: value})
			ts++
		}
		recs = append(recs, req.recs...)
		ts += uint64(len(req.recs))
	}
	s.gc.recs = recs
	tag := &s.gc.tag
	s.listener.OnGroupAppended(recs, tag, false)
	var werr error
	s.ocall(func() { werr = s.walW.AppendTagged(recs, tag) })
	if werr != nil {
		s.setWALErr(werr)
		s.listener.OnGroupSynced(false)
		return batch, recs, werr
	}
	return batch, recs, nil
}

// reserveGroup is appendGroup's engine-lock step: it refuses the group if
// the store has failed or closed, fails shipped requests that do not extend
// the frontier, sets every kept request's commit timestamp, and reserves
// the group's contiguous range, returning its size and first timestamp.
func (s *Store) reserveGroup(batch []*commitReq) ([]*commitReq, int, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return batch, 0, 0, ErrClosed
	}
	if err := s.bgErr; err != nil {
		// A background flush/compaction failed: the store fails stop
		// rather than buffering writes it can never persist.
		return batch, 0, 0, fmt.Errorf("lsm: background maintenance failed: %w", err)
	}
	if err := s.walErrLocked(); err != nil {
		// An earlier WAL append or fsync failed: refuse new commits (sticky
		// fail-stop) instead of acknowledging writes whose durability
		// the failed log can no longer promise.
		return batch, 0, 0, err
	}
	last := s.lastTs.Load()
	total := 0
	kept := batch[:0]
	for _, req := range batch {
		if err := checkShipped(req.recs, last+uint64(total)); err != nil {
			s.finish(req, err)
			continue
		}
		total += req.size()
		req.ts = last + uint64(total) // a barrier's is the frontier before it
		kept = append(kept, req)
	}
	if total > 0 {
		s.lastTs.Add(uint64(total))
	}
	return kept, total, last + 1, nil
}

// ensureMemtableRoom is the commit worker's memtable-full step, and Flush's
// (caller holds commitMu, NOT s.mu, so no group is between append and
// apply): if the active memtable is over its size target — or force is set,
// which is Flush — wait out any still-flushing predecessor (a stall only
// when a full memtable caused it) and freeze the memtable; the scheduler
// discovers the flush.
func (s *Store) ensureMemtableRoom(force bool) error {
	if !force && s.mem.ApproxBytes() < s.opts.MemtableSize {
		return nil // commitMu is held: s.mem cannot be swapped
	}
	if err := s.awaitFlushed(!force); err != nil {
		return err
	}
	// commitMu is held, so nothing froze since the wait: s.frozen is nil.
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case s.bgErr != nil:
		return s.bgErr
	}
	return s.freezeLocked()
}
