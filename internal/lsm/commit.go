package lsm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/obs"
	"elsm/internal/record"
)

// This file implements the pipelined cross-client group-commit pipeline.
// Concurrent Commit/CommitAsync callers enqueue their
// operations — and a follower's ApplyReplicated enqueues shipped groups,
// whose timestamps are checked instead of assigned; two dedicated store
// goroutines turn the queue into durable, visible state in two decoupled
// stages:
//
//   - the APPEND worker drains the queue into commit groups: one engine-lock
//     critical section assigns the group's contiguous timestamp range,
//     extends the enclave's WAL digest chain per record, and appends the
//     whole group (plus its COMMIT marker) to the untrusted log — then hands
//     the group to the sync stage and immediately starts on the next group;
//   - the SYNC worker fsyncs the log and completes groups in append order:
//     one fsync covers every group appended before it was issued (sync
//     absorption), then each covered group pays its OnGroupCommit
//     notification (the authentication layer's periodic counter bump),
//     is applied to the memtable, and has its waiters woken / futures
//     resolved.
//
// Because the append stage never waits on storage, the WAL append of group
// N+1 overlaps the in-flight fsync of group N — the classic two-stage WAL
// pipeline — while records still become readable only once durable (the
// memtable apply stays behind the fsync). Synchronous commits block until
// their group completes; CommitAsync returns a CommitFuture acknowledged at
// append (the timestamp is known) and resolved at durability, bounded by
// MaxAsyncCommitBacklog acknowledged-but-not-durable commits.
//
// When the memtable fills, the append worker does NOT rewrite any level: it
// drains the sync stage (the WAL rotation below must not race an in-flight
// fsync, and the frozen log's records must all be in the frozen memtable),
// freezes the memtable (a pointer swap plus one WAL rename) and schedules a
// background flush, stalling only if the previous frozen memtable is still
// being flushed (counted in Stats.FlushStallNanos).

// maxAutoCommitWindow caps the adaptive batching wait derived from the
// fsync EWMA: even on pathologically slow storage the deliberate batching
// delay never exceeds this.
const maxAutoCommitWindow = 2 * time.Millisecond

// CommitFuture is the handle of an asynchronous commit. It is acknowledged
// ("accepted") when the append worker has assigned the commit timestamp and
// appended the group to the WAL, and resolved ("done") when the group's
// records are durable on stable storage and visible to reads. A crash
// between acceptance and resolution loses the commit — that is the
// durability trade CommitAsync makes; Sync is the barrier that closes it.
type CommitFuture struct {
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

// accept publishes the commit timestamp (append-stage acknowledgment).
// acceptedDone is read by the completion path, which is ordered after
// acceptance by the pipeline handoff, so no atomicity is needed.
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

// commitReq is one caller's pending commit: ops the append stage stamps,
// or recs — a shipped group, ApplyReplicated — whose timestamps the leader
// assigned and the append stage only checks. A request with neither is a
// Sync durability barrier: it carries nothing, and completes once every
// group appended before it is durable.
type commitReq struct {
	ops  []BatchOp
	recs []record.Record
	ts   uint64 // commit timestamp (the group's last record of this request)
	err  error
	fut  *CommitFuture // non-nil for async commits
	// release, if set, runs when the request settles (async backlog slot
	// return) — before the future resolves, so gauges never lag callers
	// woken by Done.
	release func()
	// claimed settles the race between the append worker taking the
	// request and a cancelled waiter withdrawing it: whoever wins the CAS
	// owns the request.
	claimed atomic.Bool
	done    chan struct{}
	// enqueued stamps queue admission for the queue-wait histogram and the
	// commit-group trace. Zero when instrumentation is off.
	enqueued time.Time
}

// size is the number of records the request adds to its group.
func (r *commitReq) size() int { return len(r.ops) + len(r.recs) }

// finish completes the request, resolving its future if any.
func (r *commitReq) finish(err error) {
	r.err = err
	if r.release != nil {
		r.release()
	}
	finishFut(r.fut, err)
	close(r.done)
}

// commitGroup is one appended group in flight between the two stages.
type commitGroup struct {
	reqs  []*commitReq
	recs  []record.Record
	total int
	ts    uint64 // the group's last record timestamp (0 for barrier-only groups)

	// Stage-timing span (zero / unused when Options.Obs is nil). The span
	// is per GROUP, so even always-on timing is amortized over the group's
	// records; start is the earliest member's queue admission.
	start          time.Time
	queueWaitNanos uint64
	appendNanos    uint64
	traced         bool // sampled into the trace ring at completion
}

// committer is the shared two-stage commit pipeline state.
type committer struct {
	mu         sync.Mutex
	cond       *sync.Cond // append worker wake-up: pending, wantFreeze or closed
	pending    []*commitReq
	wantFreeze bool // the sync stage observed a full memtable
	closed     bool
	workerWG   sync.WaitGroup

	syncMu     sync.Mutex
	syncCond   *sync.Cond // sync worker wake-up AND drain/slot broadcast
	syncq      []*commitGroup
	inflight   int // appended groups not yet completed (pipeline depth)
	syncBusy   bool
	syncClosed bool
	syncWG     sync.WaitGroup
}

// maxPipelinedGroups bounds how many appended groups may be in flight
// toward durability at once. Two is exactly the paper-roadmap pipeline —
// group N+1 appends while group N's fsync is in flight — and it is also
// what preserves group formation: while both slots are busy the queue
// accumulates, so concurrent commits coalesce into real groups (sharing
// one OnGroupCommit counter bump) instead of being picked off one by one
// by an append stage that never waits.
const maxPipelinedGroups = 2

// startCommitter launches the two pipeline workers.
func (s *Store) startCommitter() {
	gc := &s.gc
	gc.cond = sync.NewCond(&gc.mu)
	gc.syncCond = sync.NewCond(&gc.syncMu)
	s.asyncSlots = make(chan struct{}, s.opts.MaxAsyncCommitBacklog)
	gc.workerWG.Add(1)
	go s.commitWorker()
	gc.syncWG.Add(1)
	go s.syncWorker()
}

// stopCommitter fails queued commits with ErrClosed, completes in-flight
// groups durably, and waits for both workers to exit. The append worker is
// drained first so the sync worker never misses a late-enqueued group.
func (s *Store) stopCommitter() {
	gc := &s.gc
	gc.mu.Lock()
	gc.closed = true
	gc.cond.Broadcast()
	gc.mu.Unlock()
	gc.workerWG.Wait()
	gc.syncMu.Lock()
	gc.syncClosed = true
	gc.syncCond.Broadcast()
	gc.syncMu.Unlock()
	gc.syncWG.Wait()
}

// enqueueCommit adds a request to the append queue, failing fast after
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
// visible. Timestamps are drawn from one contiguous reservation, every
// record extends the listener's WAL digest chain individually, and the
// whole batch reaches the untrusted log in one marker-terminated group
// append — sharing its fsync and periodic monotonic-counter bump with any
// concurrent commits that joined the same group. It returns the timestamp
// of the batch's last record (records occupy the contiguous range
// [ts-len(ops)+1, ts]). A context cancelled while the request is still
// queued withdraws it (the write never happens); once the append worker has
// claimed it, the commit completes regardless and its outcome is returned.
func (s *Store) Commit(ctx context.Context, ops []BatchOp) (uint64, error) {
	if err := CtxErr(ctx); err != nil {
		return 0, err
	}
	if len(ops) == 0 {
		return s.lastTs.Load(), nil
	}
	req := &commitReq{ops: ops, done: make(chan struct{})}
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
// storage. It rides the pipeline as an empty group, so it orders after all
// prior appends and completes only once the sync stage has fsynced past
// them.
func (s *Store) Sync(ctx context.Context) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	req := &commitReq{done: make(chan struct{})} // no ops: a pure barrier
	_, err := s.awaitReq(ctx, req)
	return err
}

// awaitReq enqueues req and waits for completion or ctx cancellation.
func (s *Store) awaitReq(ctx context.Context, req *commitReq) (uint64, error) {
	if err := s.enqueueCommit(req); err != nil {
		return 0, err
	}
	select {
	case <-req.done:
		return req.ts, req.err
	case <-ctxDone(ctx):
		if req.claimed.CompareAndSwap(false, true) {
			// Still queued: withdrawn before any effect. The append
			// worker skips claimed requests when draining.
			return 0, ctx.Err()
		}
		// The append worker owns it; the commit will complete.
		<-req.done
		return req.ts, req.err
	}
}

// CommitAsync enqueues ops and returns a CommitFuture immediately. The
// future is acknowledged once the append worker has assigned the commit
// timestamp (CommitFuture.Ts) and resolved when the group is durable and
// visible (CommitFuture.Wait / Done). The context bounds only the admission
// wait against MaxAsyncCommitBacklog — once accepted into the queue the
// commit proceeds regardless.
func (s *Store) CommitAsync(ctx context.Context, ops []BatchOp) (*CommitFuture, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return NewResolvedFuture(s.lastTs.Load(), nil), nil
	}
	// Backlog gate: a slot is held from admission to durability.
	select {
	case s.asyncSlots <- struct{}{}:
	case <-ctxDone(ctx):
		return nil, ctx.Err()
	}
	s.asyncInFlight.Add(1)
	fut := newCommitFuture()
	req := &commitReq{ops: ops, fut: fut, release: s.releaseAsyncSlot, done: make(chan struct{})}
	if err := s.enqueueCommit(req); err != nil {
		s.releaseAsyncSlot()
		return nil, err
	}
	return fut, nil
}

func (s *Store) releaseAsyncSlot() {
	s.asyncInFlight.Add(-1)
	<-s.asyncSlots
}

// resolveCommitWindow returns the batching window in effect: the configured
// duration, or — when GroupCommitWindow is AutoGroupCommitWindow — half the
// observed fsync-latency EWMA, capped. Half the fsync time is the sweet
// spot of the group-commit feedback loop: the queue keeps filling while the
// previous group's fsync is in flight anyway, so waiting longer than the
// fsync itself only adds latency, while a fraction of it lets a lone burst
// coalesce without materially delaying any commit.
func (s *Store) resolveCommitWindow() time.Duration {
	w := s.opts.GroupCommitWindow
	if w != AutoGroupCommitWindow {
		return w
	}
	w = time.Duration(s.fsyncEWMANanos.Load()) / 2
	if w > maxAutoCommitWindow {
		w = maxAutoCommitWindow
	}
	return w
}

// pendingGroupFormed reports whether waiting could not improve the next
// group: the queue already carries at least GroupCommitMaxOps operations,
// or it carries a shipped group — one its leader formed already, applied by
// a tailer that sends the next only after this one is durable, so nothing
// can join it and a window would be pure replication lag.
func (s *Store) pendingGroupFormed() bool {
	max := s.opts.GroupCommitMaxOps
	s.gc.mu.Lock()
	defer s.gc.mu.Unlock()
	n := 0
	for _, req := range s.gc.pending {
		n += req.size()
		if len(req.recs) > 0 || (max > 0 && n >= max) {
			return true
		}
	}
	return false
}

// commitWorker is the append stage: it drains the queue into groups and
// appends each to the WAL, never waiting on an fsync.
func (s *Store) commitWorker() {
	gc := &s.gc
	defer gc.workerWG.Done()
	for {
		gc.mu.Lock()
		for len(gc.pending) == 0 && !gc.wantFreeze && !gc.closed {
			gc.cond.Wait()
		}
		if gc.closed {
			// Fail everything still queued (the documented Close
			// semantics: queued commits fail, in-flight groups drain).
			pending := gc.pending
			gc.pending = nil
			gc.mu.Unlock()
			for _, req := range pending {
				if req.claimed.CompareAndSwap(false, true) {
					req.finish(ErrClosed)
				}
			}
			return
		}
		freeze := gc.wantFreeze
		gc.wantFreeze = false
		gc.mu.Unlock()

		if freeze {
			// The sync stage saw the memtable fill: freeze it promptly
			// even if no further commits arrive to trigger the check.
			// Failures surface as bgErr (set inside) or on later commits.
			s.commitMu.Lock()
			_ = s.ensureMemtableRoom(false)
			s.commitMu.Unlock()
		}
		if w := s.resolveCommitWindow(); w > 0 && !s.pendingGroupFormed() {
			// Deliberate batching window: hold the append stage briefly so
			// more concurrent commits can join this group. Skipped when
			// the queue already holds a full group or a shipped one.
			time.Sleep(w)
		}
		s.waitPipelineSlot()
		if batch := s.drainPending(); len(batch) > 0 {
			s.processGroup(batch)
		}
	}
}

// waitPipelineSlot blocks until fewer than maxPipelinedGroups appended
// groups are awaiting durability — the backpressure that both bounds the
// pipeline and lets the pending queue coalesce into real groups.
func (s *Store) waitPipelineSlot() {
	gc := &s.gc
	gc.syncMu.Lock()
	for gc.inflight >= maxPipelinedGroups && !gc.syncClosed {
		gc.syncCond.Wait()
	}
	gc.syncMu.Unlock()
}

// drainPending claims a bounded prefix of the queue as the next group,
// skipping requests withdrawn by context cancellation.
func (s *Store) drainPending() []*commitReq {
	gc := &s.gc
	gc.mu.Lock()
	defer gc.mu.Unlock()
	max := s.opts.GroupCommitMaxOps
	var batch []*commitReq
	n, i := 0, 0
	for ; i < len(gc.pending); i++ {
		req := gc.pending[i]
		if !req.claimed.CompareAndSwap(false, true) {
			continue // withdrawn
		}
		batch = append(batch, req)
		n += req.size()
		if max > 0 && n >= max {
			i++
			break
		}
	}
	gc.pending = append(gc.pending[:0:0], gc.pending[i:]...)
	return batch
}

// processGroup runs the append stage for one group and hands it to the
// sync stage.
func (s *Store) processGroup(batch []*commitReq) {
	finish := func(err error) {
		for _, req := range batch {
			req.finish(err)
		}
	}

	// Stage timing (per group, not per record: the clock reads amortize
	// over the group). Queue wait is each member's time from enqueue to
	// the append stage picking the group up.
	rec := s.opts.Obs
	var appendStart time.Time
	if rec != nil {
		appendStart = time.Now()
		for _, req := range batch {
			if !req.enqueued.IsZero() {
				rec.CommitQueueWait.ObserveDuration(appendStart.Sub(req.enqueued))
			}
		}
	}

	s.commitMu.Lock()

	// Backpressure point: if the memtable is full, drain the pipeline and
	// freeze it BEFORE appending this group, so the group's records land in
	// the fresh active log and memtable.
	if err := s.ensureMemtableRoom(false); err != nil {
		s.commitMu.Unlock()
		finish(err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.commitMu.Unlock()
		finish(ErrClosed)
		return
	}
	if err := s.bgErr; err != nil {
		// A background flush/compaction failed: the store fails stop
		// rather than buffering writes it can never persist.
		s.mu.Unlock()
		s.commitMu.Unlock()
		finish(fmt.Errorf("lsm: background maintenance failed: %w", err))
		return
	}
	if err := s.walErrLocked(); err != nil {
		// An earlier WAL fsync failed: refuse new commits (sticky
		// fail-stop) instead of acknowledging writes whose durability
		// the failed log can no longer promise.
		s.mu.Unlock()
		s.commitMu.Unlock()
		finish(err)
		return
	}
	// A shipped group that does not extend the frontier fails alone; the
	// rest of the batch (barriers, on a follower) goes on without it.
	total := 0
	kept := batch[:0]
	for _, req := range batch {
		if err := checkShipped(req.recs, s.lastTs.Load()+uint64(total)); err != nil {
			req.finish(err)
			continue
		}
		total += req.size()
		kept = append(kept, req)
	}
	if batch = kept; len(batch) == 0 {
		s.mu.Unlock()
		s.commitMu.Unlock()
		return
	}
	var recs []record.Record
	var groupTs uint64
	if total > 0 {
		last := s.lastTs.Add(uint64(total))
		ts := last - uint64(total) + 1
		groupTs = last
		recs = make([]record.Record, 0, total)
		for _, req := range batch {
			for _, op := range req.ops {
				kind := record.KindSet
				value := op.Value
				if op.Delete {
					kind = record.KindDelete
					value = nil
				}
				rec := record.Record{Key: op.Key, Ts: ts, Kind: kind, Value: value}
				s.listener.OnWALAppend(rec)
				recs = append(recs, rec)
				ts++
			}
			for i := range req.recs {
				s.listener.OnWALAppend(req.recs[i])
			}
			recs = append(recs, req.recs...)
			ts += uint64(len(req.recs))
			req.ts = ts - 1
			if req.size() == 0 {
				req.ts = s.lastTs.Load()
			}
		}
		var werr error
		s.ocall(func() { werr = s.walW.AppendBatch(recs) })
		if werr != nil {
			s.mu.Unlock()
			s.commitMu.Unlock()
			finish(werr)
			return
		}
		s.listener.OnGroupAppended()
	} else {
		for _, req := range batch {
			req.ts = s.lastTs.Load()
		}
	}
	s.mu.Unlock()

	// Acceptance: timestamps are assigned and the group is in the log
	// (not yet durable) — acknowledge async futures now.
	for _, req := range batch {
		if req.fut != nil {
			req.fut.accept(req.ts)
		}
	}

	group := &commitGroup{reqs: batch, recs: recs, total: total, ts: groupTs}
	if rec != nil {
		group.start = appendStart
		for _, req := range batch {
			if !req.enqueued.IsZero() && (group.start.IsZero() || req.enqueued.Before(group.start)) {
				group.start = req.enqueued
			}
		}
		group.queueWaitNanos = uint64(appendStart.Sub(group.start))
		group.appendNanos = uint64(time.Since(appendStart))
		rec.CommitAppend.Observe(group.appendNanos)
		group.traced = total > 0 && rec.ShouldTrace()
	}
	// Hand off to the sync stage BEFORE releasing commitMu, so the sync
	// queue preserves append order (completion, apply and barriers all
	// rely on it).
	gc := &s.gc
	gc.syncMu.Lock()
	gc.syncq = append(gc.syncq, group)
	gc.inflight++
	gc.syncCond.Signal()
	gc.syncMu.Unlock()
	s.commitMu.Unlock()
}

// syncWorker is the sync stage: it fsyncs appended groups and completes
// them in order. All groups queued at wake-up share one fsync (sync
// absorption) — except with GroupCommitMaxOps == 1, where every group pays
// its own fsync, preserving the documented per-op-commit baseline.
func (s *Store) syncWorker() {
	gc := &s.gc
	defer gc.syncWG.Done()
	gc.syncMu.Lock()
	for {
		for len(gc.syncq) == 0 && !gc.syncClosed {
			gc.syncCond.Wait()
		}
		if len(gc.syncq) == 0 {
			gc.syncMu.Unlock()
			return
		}
		var groups []*commitGroup
		if s.opts.GroupCommitMaxOps == 1 {
			groups = gc.syncq[:1]
			gc.syncq = append(gc.syncq[:0:0], gc.syncq[1:]...)
		} else {
			groups = gc.syncq
			gc.syncq = nil
		}
		gc.syncBusy = true
		gc.syncMu.Unlock()

		s.completeGroups(groups)

		gc.syncMu.Lock()
		gc.inflight -= len(groups)
		gc.syncBusy = false
		gc.syncCond.Broadcast() // wake drainSync and pipeline-slot waiters
	}
}

// drainSync blocks until the sync stage is idle and its queue empty. The
// caller must hold commitMu (so no new groups can be appended meanwhile) —
// afterwards every accepted commit is durable and applied, and the WAL file
// has no fsync in flight, making rotation safe.
func (s *Store) drainSync() {
	gc := &s.gc
	gc.syncMu.Lock()
	for len(gc.syncq) > 0 || gc.syncBusy {
		gc.syncCond.Wait()
	}
	gc.syncMu.Unlock()
}

// completeGroups fsyncs and completes a run of appended groups in order.
func (s *Store) completeGroups(groups []*commitGroup) {
	rec := s.opts.Obs
	var fsyncNanos uint64
	anyRecs := false
	for _, g := range groups {
		if g.total > 0 {
			anyRecs = true
		}
	}
	if anyRecs {
		var serr error
		syncStart := time.Now()
		s.ocall(func() { serr = s.walW.Sync() })
		if serr != nil {
			// The groups' durability is unknown; fail them without
			// applying (records never become visible unless durable).
			// Their WAL records may still be replayed after a crash —
			// the same exposure a failed fsync always had. Each appended
			// group must still consume its OnGroupAppended mark
			// (OnGroupAbandoned) or the listener's durable-frontier queue
			// would desynchronize from later, successful groups.
			// The failure is STICKY: fsync error semantics mean the kernel
			// may have dropped dirty pages anywhere in the log, so later
			// fsyncs succeeding would prove nothing. Every subsequent
			// commit fails until the store is reopened.
			s.setWALErr(serr)
			err := fmt.Errorf("%w: %w", ErrWALSyncFailed, serr)
			for _, g := range groups {
				if g.total > 0 {
					s.listener.OnGroupAbandoned()
				}
				for _, req := range g.reqs {
					req.finish(err)
				}
			}
			return
		}
		d := time.Since(syncStart)
		s.observeFsync(d)
		s.walSyncs.Add(1)
		if rec != nil {
			// One fsync covers every absorbed group; the histogram counts
			// it once, each group's trace reports the fsync it rode.
			fsyncNanos = uint64(d)
			rec.CommitFsync.Observe(fsyncNanos)
		}
	}

	memFull := false
	for _, g := range groups {
		var applyNanos uint64
		var resolveStart time.Time
		if g.total > 0 {
			s.groupCommits.Add(1)
			s.groupedRecords.Add(uint64(g.total))
			s.listener.OnGroupCommit(g.total)
			var applyStart time.Time
			if rec != nil {
				applyStart = time.Now()
			}
			s.mu.Lock()
			for i := range g.recs {
				s.mem.Put(g.recs[i])
			}
			s.appliedTs.Store(g.ts)
			if s.mem.ApproxBytes() >= s.opts.MemtableSize {
				memFull = true
			}
			s.mu.Unlock()
			s.notifyGroupSink(g.recs, g.ts)
			if rec != nil {
				applyNanos = uint64(time.Since(applyStart))
				rec.CommitApply.Observe(applyNanos)
			}
		}
		if rec != nil {
			resolveStart = time.Now()
		}
		for _, req := range g.reqs {
			req.finish(nil)
		}
		if rec != nil && g.total > 0 {
			resolveNanos := uint64(time.Since(resolveStart))
			rec.CommitResolve.Observe(resolveNanos)
			total := uint64(time.Since(g.start))
			slow := total >= rec.SlowThresholdNanos()
			if g.traced || slow {
				rec.Record(obs.Trace{
					Kind:       "commit-group",
					Seq:        g.ts,
					Start:      g.start,
					TotalNanos: total,
					Records:    g.total,
					Stages: []obs.Stage{
						{Name: "queue-wait", Nanos: g.queueWaitNanos},
						{Name: "append", Nanos: g.appendNanos},
						{Name: "fsync", Nanos: fsyncNanos},
						{Name: "apply", Nanos: applyNanos},
						{Name: "resolve", Nanos: resolveNanos},
					},
				}, g.traced)
			}
		}
	}
	if memFull {
		// Nudge the append worker: it owns freezes, and without this a
		// write burst followed by silence would leave the memtable full
		// until the next commit.
		gc := &s.gc
		gc.mu.Lock()
		if !gc.closed {
			gc.wantFreeze = true
			gc.cond.Signal()
		}
		gc.mu.Unlock()
	}
}

// observeFsync feeds the fsync-latency EWMA (α = 1/4). Only the sync stage
// calls it, so the read-modify-write is race-free.
func (s *Store) observeFsync(d time.Duration) {
	old := s.fsyncEWMANanos.Load()
	if old == 0 {
		s.fsyncEWMANanos.Store(d.Nanoseconds())
		return
	}
	s.fsyncEWMANanos.Store((3*old + d.Nanoseconds()) / 4)
}

// ensureMemtableRoom is the append worker's memtable-full step (caller
// holds commitMu, NOT s.mu): if the active memtable is over its size target
// — or force is set, which is Flush — drain the sync pipeline (every
// appended record must be applied before its log is frozen, and no fsync
// may be in flight across the WAL rotation), wait out any still-flushing
// predecessor (a stall only when a full memtable caused it) and freeze the
// memtable; the scheduler discovers the flush.
func (s *Store) ensureMemtableRoom(force bool) error {
	if !force {
		s.mu.RLock()
		full := s.mem.ApproxBytes() >= s.opts.MemtableSize
		s.mu.RUnlock()
		if !full {
			return nil
		}
	}
	s.drainSync()
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
