package lsm

import (
	"sync"
	"sync/atomic"
)

// This file implements the maintenance scheduler: a debt-aware dispatcher
// that executes flush and compaction jobs off the commit path on a bounded
// pool of workers (Options.CompactionWorkers, shareable across stores).
// Jobs touching DISJOINT level pairs run concurrently — a flush claims
// {memtable, L1}, a compaction of Ln claims {Ln, Ln+1} — while jobs whose
// claims overlap serialize in queue order. Among the dispatchable jobs the
// dispatcher always prefers a flush (flushes unblock stalled commit
// leaders) and orders the rest by compaction debt: bytes over the level's
// size target, so the level furthest past its budget gets the next worker.
//
// Concurrency invariants the dispatcher preserves:
//
//   - at most one job per level pair: the claims table rejects any job
//     whose input or output level another running job owns;
//   - version installs stay serialized: phase 3 of every job runs under
//     Store.installMu (compaction.go), so the listener's transition-seal
//     staging is single-slot by construction even with parallel phase 2s;
//   - barriers (WaitMaintenance) and exclusive jobs (bulk load) are full
//     fences: they dispatch only at the queue head with zero jobs in
//     flight, and jobs queued behind them wait.
//
// The queue stays bounded by construction: background triggers are
// deduplicated (at most one pending flush, at most one pending compaction
// per level) and synchronous requests are bounded by their callers, who
// block on the result.
//
// Close semantics: stopMaintenance marks the queue closed and waits for the
// dispatcher to DRAIN — in-flight jobs and everything already queued run to
// completion, so a half-built version is never abandoned between its
// manifest write and its digest install. New enqueues after close fail with
// ErrClosed.

// Job kinds.
const (
	jobIdle    = iota // unused slot marker (kept for readability)
	jobFlush          // flush the frozen memtable into level 1
	jobCompact        // merge level N into level N+1
	jobFunc           // run an arbitrary closure (bulk load) — exclusive
	jobBarrier        // no-op: WaitMaintenance fence
)

// WorkerPool is a bounded token pool limiting how many maintenance jobs
// may execute concurrently. One pool may be shared by several stores (the
// sharded open path does), in which case the bound is machine-wide.
type WorkerPool struct {
	sem  chan struct{}
	busy atomic.Int64
}

// NewWorkerPool creates a pool of n worker tokens (n < 1 is clamped to 1).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = 1
	}
	return &WorkerPool{sem: make(chan struct{}, n)}
}

// Busy returns how many tokens are currently held.
func (p *WorkerPool) Busy() int { return int(p.busy.Load()) }

func (p *WorkerPool) acquire() {
	p.sem <- struct{}{}
	p.busy.Add(1)
}

func (p *WorkerPool) release() {
	p.busy.Add(-1)
	<-p.sem
}

// maintJob is one queued maintenance request.
type maintJob struct {
	kind  int
	level int          // jobCompact only
	fn    func() error // jobFunc only
	done  chan error   // non-nil: a synchronous caller awaits the result
}

// maintenance is the scheduler state.
type maintenance struct {
	mu     sync.Mutex
	cond   *sync.Cond // queue change, job completion, close
	queue  []*maintJob
	closed bool
	wg     sync.WaitGroup // the dispatcher goroutine

	// claimed maps a level to true while a running job owns it. A flush
	// owns {0, 1} (0 stands for the memtable side); a compaction of lvl
	// owns {lvl, lvl+1}.
	claimed map[int]bool

	// inflight counts running jobs of any kind; jobs signal cond on
	// completion so the dispatcher can re-evaluate fences and claims.
	inflight int

	// Dedup flags for background (fire-and-forget) triggers; cleared when
	// the job is dispatched so a trigger during execution re-queues.
	flushQueued   bool
	compactQueued map[int]bool

	// Per-class in-flight counters, read lock-free by stalled writers to
	// attribute their wait: a flush in flight means the writer is waiting
	// on flush progress itself; compactions in flight with NO flush
	// running mean compaction debt is holding the workers the flush needs.
	flushInFlight   atomic.Int32
	compactInFlight atomic.Int32

	// running gauges Stats.ParallelCompactions: flush/compact/bulk-load
	// jobs currently executing (barriers excluded).
	running atomic.Int64
}

// startMaintenance launches the dispatcher.
func (s *Store) startMaintenance() {
	m := &s.maint
	m.cond = sync.NewCond(&m.mu)
	m.compactQueued = make(map[int]bool)
	m.claimed = make(map[int]bool)
	m.wg.Add(1)
	go s.maintDispatcher()
}

// stopMaintenance closes the queue and waits for the dispatcher to drain
// it (queued and in-flight jobs run to completion), then wakes any writer
// stalled on a flush that will now never be scheduled (it observes the
// closed queue and fails with ErrClosed).
func (s *Store) stopMaintenance() {
	m := &s.maint
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	if !already {
		s.mu.Lock()
		s.flushDone.Broadcast()
		s.mu.Unlock()
	}
}

// maintenanceClosed reports whether the scheduler stopped accepting jobs.
func (s *Store) maintenanceClosed() bool {
	m := &s.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// enqueue appends a job, returning ErrClosed after stopMaintenance.
func (s *Store) enqueue(j *maintJob) error {
	m := &s.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, j)
	m.cond.Broadcast()
	return nil
}

// runSync enqueues a job and blocks until a worker has executed it.
func (s *Store) runSync(kind, level int, fn func() error) error {
	done := make(chan error, 1)
	if err := s.enqueue(&maintJob{kind: kind, level: level, fn: fn, done: done}); err != nil {
		return err
	}
	return <-done
}

// scheduleFlush queues a background flush of the frozen memtable (at most
// one outstanding).
func (s *Store) scheduleFlush() error {
	m := &s.maint
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.flushQueued {
		m.mu.Unlock()
		return nil
	}
	m.flushQueued = true
	m.queue = append(m.queue, &maintJob{kind: jobFlush})
	m.cond.Broadcast()
	m.mu.Unlock()
	return nil
}

// scheduleCompaction queues a background compaction of lvl (at most one
// outstanding per level).
func (s *Store) scheduleCompaction(lvl int) {
	m := &s.maint
	m.mu.Lock()
	if !m.closed && !m.compactQueued[lvl] {
		m.compactQueued[lvl] = true
		m.queue = append(m.queue, &maintJob{kind: jobCompact, level: lvl})
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// scheduleOverflowCompactions queues a background compaction for EVERY
// level over its size target (§2: COMPACTION "to make room in lower levels
// for upcoming writes"). Called after each install. With multiple workers,
// disjoint overflowing levels compact in parallel; adjacent ones conflict
// on their shared level claim and serialize in debt order.
func (s *Store) scheduleOverflowCompactions() {
	for _, lvl := range s.overflowingLevels() {
		s.scheduleCompaction(lvl)
	}
}

// claims returns the level set a job must own to run.
func jobClaims(j *maintJob) []int {
	switch j.kind {
	case jobFlush:
		return []int{0, 1} // 0 = the memtable side of the flush
	case jobCompact:
		return []int{j.level, j.level + 1}
	}
	return nil
}

// claimsFreeLocked reports whether none of the job's levels is owned by a
// running job. Caller holds m.mu.
func (m *maintenance) claimsFreeLocked(j *maintJob) bool {
	for _, lvl := range jobClaims(j) {
		if m.claimed[lvl] {
			return false
		}
	}
	return true
}

// compactionDebt returns how many bytes lvl sits over its size target
// (0 when under). Reads the per-level byte gauges, NOT s.mu — the
// dispatcher holds maint.mu, which must never wait on the engine lock
// (ensureMemtableRoom holds s.mu while querying maintenanceClosed).
func (s *Store) compactionDebt(lvl int) int64 {
	if lvl < 1 || lvl >= len(s.levelBytesGauge) {
		return 0
	}
	debt := s.levelBytesGauge[lvl].Load() - s.opts.levelTarget(lvl)
	if debt < 0 {
		return 0
	}
	return debt
}

// pickJobLocked selects the best dispatchable job and removes it from the
// queue, or returns nil. Queue order is a fence order: a barrier or
// exclusive job blocks everything behind it until it has dispatched.
// Caller holds m.mu.
func (s *Store) pickJobLocked() *maintJob {
	m := &s.maint
	best := -1
	var bestDebt int64 = -1
	for i, j := range m.queue {
		switch j.kind {
		case jobBarrier, jobFunc:
			// A fence: dispatchable only from the queue head with nothing
			// in flight; nothing behind it may overtake it.
			if i == 0 && m.inflight == 0 {
				best = i
			}
			goto picked
		case jobFlush:
			if m.claimsFreeLocked(j) {
				// Flushes always win: they unblock stalled commit leaders.
				best = i
				goto picked
			}
		case jobCompact:
			if m.claimsFreeLocked(j) {
				if d := s.compactionDebt(j.level); d > bestDebt {
					best, bestDebt = i, d
				}
			}
		}
	}
picked:
	if best < 0 {
		return nil
	}
	j := m.queue[best]
	m.queue = append(m.queue[:best], m.queue[best+1:]...)
	return j
}

// maintDispatcher is the scheduler loop: it waits for a dispatchable job,
// acquires a worker token (possibly contending with other stores sharing
// the pool), re-picks the best job — priorities may have shifted while
// waiting for the token — and hands it to a job goroutine.
func (s *Store) maintDispatcher() {
	m := &s.maint
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for {
			if s.pickableLocked() {
				break
			}
			if m.closed && len(m.queue) == 0 && m.inflight == 0 {
				m.mu.Unlock()
				return
			}
			m.cond.Wait()
		}
		m.mu.Unlock()

		// Blocking token acquire OUTSIDE maint.mu: state queries
		// (maintenanceClosed, scheduling) must never wait on the pool.
		s.workers.acquire()

		m.mu.Lock()
		j := s.pickJobLocked()
		if j == nil {
			// The dispatchable job was claimed away (priorities shifted);
			// return the token and re-evaluate.
			m.mu.Unlock()
			s.workers.release()
			continue
		}
		switch j.kind {
		case jobFlush:
			if j.done == nil {
				m.flushQueued = false
			}
			m.flushInFlight.Add(1)
			m.running.Add(1)
		case jobCompact:
			if j.done == nil {
				m.compactQueued[j.level] = false
			}
			m.compactInFlight.Add(1)
			m.running.Add(1)
		case jobFunc:
			m.running.Add(1)
		}
		for _, lvl := range jobClaims(j) {
			m.claimed[lvl] = true
		}
		m.inflight++
		m.mu.Unlock()
		go s.executeJob(j)
	}
}

// pickableLocked reports whether any queued job could dispatch right now.
// Caller holds m.mu.
func (s *Store) pickableLocked() bool {
	m := &s.maint
	for i, j := range m.queue {
		switch j.kind {
		case jobBarrier, jobFunc:
			return i == 0 && m.inflight == 0
		default:
			if m.claimsFreeLocked(j) {
				return true
			}
		}
	}
	return false
}

// executeJob runs one dispatched job on its own goroutine, then releases
// its claims and worker token and wakes the dispatcher.
func (s *Store) executeJob(j *maintJob) {
	var err error
	switch j.kind {
	case jobFlush:
		err = s.flushFrozen()
	case jobCompact:
		err = s.compactLevel(j.level, j.done == nil)
	case jobFunc:
		err = j.fn()
	case jobBarrier:
		// Fence only: dispatching required every prior job to finish.
	}

	if err != nil && (j.kind == jobFlush || j.done == nil) {
		// Fail stop: fire-and-forget failures have no caller to report
		// to, and a FAILED FLUSH — synchronous or not — leaves the
		// frozen memtable stranded, so commit leaders stalled on it
		// must be woken to observe the error rather than wait forever.
		s.mu.Lock()
		s.setBgErrLocked(err)
		s.mu.Unlock()
	}
	if j.done != nil {
		j.done <- err
	}

	m := &s.maint
	m.mu.Lock()
	switch j.kind {
	case jobFlush:
		m.flushInFlight.Add(-1)
		m.running.Add(-1)
	case jobCompact:
		m.compactInFlight.Add(-1)
		m.running.Add(-1)
	case jobFunc:
		m.running.Add(-1)
	}
	for _, lvl := range jobClaims(j) {
		delete(m.claimed, lvl)
	}
	m.inflight--
	m.cond.Broadcast()
	m.mu.Unlock()
	s.workers.release()
}
