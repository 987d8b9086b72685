package lsm

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the maintenance scheduler: ONE picker, pickJob,
// decides every flush and compaction from the store's state, and what it
// picks runs on a bounded pool of workers (Options.CompactionWorkers,
// shareable across stores). A dispatcher goroutine asks it when an idle
// store gets work; a worker asks it again, in the critical section that
// retires the job it just finished, for its successor.
//
// What is state. Background work is never enqueued, only discovered: a
// frozen memtable awaiting its flush (the frozen/flushed counters below), a
// level over its size target (levelBytesGauge against Options.levelTarget),
// the levels running jobs own, and how many jobs are in flight. Every event
// that changes one of them — a freeze, an install, a job ending, a failure,
// Close — broadcasts maint.cond; the picker runs again and the callers
// blocked in Flush, WaitMaintenance or a full-memtable stall re-check their
// predicate. Nothing remembers that "a flush was scheduled":
// asking twice is asking once.
//
// What is still queued. Only the explicit, unconditional requests —
// Compact(lvl) and BulkLoad, whose callers block on the result — wait in a
// FIFO, and the picker looks at its head alone.
//
// The order. An exclusive request (bulk load) is a fence: it runs with
// nothing in flight and nothing overtakes it. Otherwise a flush wins (it
// unblocks stalled commit leaders), then the requested compaction, then the
// level furthest over its target, ties to the shallower level. A flush
// claims {memtable, L1}, a compaction of Ln claims {Ln, Ln+1}; jobs whose
// claims are disjoint run concurrently, and a job whose claim is taken
// waits for the picker's next run. Version installs stay serialized by
// Store.installMu (compaction.go) however many merges overlap.
//
// Open. A store that was just opened is left alone until its first event —
// a freeze, a request, a Flush or WaitMaintenance: the layer above finishes
// validating the recovered tree AFTER Open returns (core matches every run
// against its sealed digests), and a compaction begun before that would be
// refused by its listener. Debt recovered from disk is picked up with the
// first write burst or Flush.
//
// Failure. A discovered job has no caller, so its failure is the sticky
// background error (fail-stop): the picker discovers nothing more — the
// stranded state would be picked again forever — and every waiter returns
// it. A compaction reached through Flush is always such a job. A failed
// request only returns its error to its caller.
//
// Close. stopMaintenance marks the scheduler closing and waits for the
// dispatcher to drain: jobs in flight, the pending flush and the requests
// already queued run to completion, so a half-built version is never
// abandoned between its manifest write and its digest install. Overflowing
// levels are left for the next open; new requests fail with ErrClosed.

// Job kinds.
const (
	jobFlush     = iota + 1 // flush the frozen memtable into level 1
	jobCompact              // merge level N into level N+1
	jobExclusive            // run a closure (bulk load) with nothing else in flight
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

// tryAcquire takes a token only if one is free right now.
func (p *WorkerPool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		p.busy.Add(1)
		return true
	default:
		return false
	}
}

func (p *WorkerPool) release() {
	p.busy.Add(-1)
	<-p.sem
}

// maintJob is one maintenance job: picked from state, or requested.
type maintJob struct {
	kind  int
	level int          // jobCompact only
	fn    func() error // jobExclusive only
	done  chan error   // non-nil: a request, whose caller awaits the result
}

// claims returns the levels a job must own to run (0 stands for the
// memtable side of a flush).
func (j *maintJob) claims() []int {
	switch j.kind {
	case jobFlush:
		return []int{0, 1}
	case jobCompact:
		return []int{j.level, j.level + 1}
	}
	return nil
}

// maintState is everything the picker looks at.
type maintState struct {
	fresh    bool         // nothing has happened since Open
	closing  bool         // Close was requested
	failed   bool         // the sticky background error is set
	head     *maintJob    // the request at the head of the queue, or nil
	frozen   bool         // a frozen memtable awaits its flush
	debt     []int64      // bytes over target by level; nil with DisableCompaction
	claimed  map[int]bool // levels owned by running jobs
	inflight int          // running jobs
}

// pickJob returns the job to start next, or nil. It has no side effects.
func pickJob(st maintState) *maintJob {
	free := func(j *maintJob) bool {
		for _, lvl := range j.claims() {
			if st.claimed[lvl] {
				return false
			}
		}
		return true
	}
	if st.fresh {
		return nil
	}
	if st.head != nil && st.head.kind == jobExclusive {
		if st.inflight == 0 {
			return st.head
		}
		return nil
	}
	if st.frozen && !st.failed {
		if j := (&maintJob{kind: jobFlush}); free(j) {
			return j
		}
	}
	if st.head != nil && free(st.head) {
		return st.head
	}
	if st.closing || st.failed {
		return nil
	}
	var best *maintJob
	var bestDebt int64
	for lvl, debt := range st.debt {
		if debt > bestDebt {
			if j := (&maintJob{kind: jobCompact, level: lvl}); free(j) {
				best, bestDebt = j, debt
			}
		}
	}
	return best
}

// maintenance is the scheduler state.
type maintenance struct {
	mu      sync.Mutex
	cond    *sync.Cond     // any change to the fields below
	queue   []*maintJob    // requests, FIFO
	used    bool           // note was called: the store is past its open
	closing bool           // stopMaintenance was called
	err     error          // mirrors Store.bgErr for waiters, who hold mu, not Store.mu
	wg      sync.WaitGroup // the dispatcher goroutine

	// frozen and flushed count the memtables frozen and the flushes
	// installed since open. At most one memtable is outstanding, so
	// frozen > flushed means "a flush is due", and a caller that froze
	// table number n waits for flushed ≥ n — not for tables frozen after it.
	frozen, flushed uint64

	// claimed maps a level to true while a running job owns it.
	claimed map[int]bool

	// inflight counts running jobs; flushing and compacting are its flush
	// and level-compaction shares, by which a stalled writer attributes
	// its wait.
	inflight, flushing, compacting int
}

// startMaintenance launches the dispatcher.
func (s *Store) startMaintenance() {
	m := &s.maint
	m.cond = sync.NewCond(&m.mu)
	m.claimed = make(map[int]bool)
	m.wg.Add(1)
	go s.maintDispatcher()
}

// note applies a state change and wakes the dispatcher and every waiter.
func (m *maintenance) note(change func()) {
	m.mu.Lock()
	change()
	m.used = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// stopMaintenance marks the scheduler closing and waits for the dispatcher
// to drain (see the file comment). Stalled writers and settle waiters
// observe closing and fail with ErrClosed.
func (s *Store) stopMaintenance() {
	s.maint.note(func() { s.maint.closing = true })
	s.maint.wg.Wait()
}

// runSync queues a request and blocks until a worker has executed it.
func (s *Store) runSync(j *maintJob) error {
	j.done = make(chan error, 1)
	m := &s.maint
	var closing bool
	m.note(func() {
		if closing = m.closing; !closing {
			m.queue = append(m.queue, j)
		}
	})
	if closing {
		return ErrClosed
	}
	return <-j.done
}

// compactionDebt returns how many bytes lvl sits over its size target
// (0 when under). Reads the per-level byte gauges, NOT s.mu — the
// dispatcher holds maint.mu, which must never wait on the engine lock
// (a freeze holds s.mu while taking maint.mu).
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

// stateLocked gathers the picker's input. Only levels that have a level
// below them carry debt: the bottom level has nowhere to go. Caller holds
// maint.mu.
func (s *Store) stateLocked() maintState {
	m := &s.maint
	st := maintState{
		fresh:    !m.used,
		closing:  m.closing,
		failed:   m.err != nil,
		frozen:   m.flushed < m.frozen,
		claimed:  m.claimed,
		inflight: m.inflight,
	}
	if len(m.queue) > 0 {
		st.head = m.queue[0]
	}
	if !s.opts.DisableCompaction {
		st.debt = make([]int64, s.opts.MaxLevels)
		for lvl := 1; lvl < s.opts.MaxLevels; lvl++ {
			st.debt[lvl] = s.compactionDebt(lvl)
		}
	}
	return st
}

// startLocked marks j running: a request leaves the queue, the job owns its
// levels and counts in flight. Caller holds maint.mu and a worker token.
func (m *maintenance) startLocked(j *maintJob) {
	if j.done != nil {
		m.queue = m.queue[1:]
	}
	for _, lvl := range j.claims() {
		m.claimed[lvl] = true
	}
	m.inflight++
	switch j.kind {
	case jobFlush:
		m.flushing++
	case jobCompact:
		m.compacting++
	}
}

// finishLocked is startLocked undone. Caller holds maint.mu.
func (m *maintenance) finishLocked(j *maintJob) {
	for _, lvl := range j.claims() {
		delete(m.claimed, lvl)
	}
	m.inflight--
	switch j.kind {
	case jobFlush:
		m.flushing--
	case jobCompact:
		m.compacting--
	}
}

// maintDispatcher starts work on an idle store: it waits until the picker
// has a job, acquires a worker token (possibly contending with other stores
// sharing the pool), picks again — the state may have moved while it waited
// for the token — and hands the job to a worker goroutine.
func (s *Store) maintDispatcher() {
	m := &s.maint
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for pickJob(s.stateLocked()) == nil {
			if m.closing && m.inflight == 0 {
				return
			}
			m.cond.Wait()
		}
		// Blocking token acquire OUTSIDE maint.mu: freezes, installs and
		// waiters must never wait on the pool.
		m.mu.Unlock()
		s.workers.acquire()
		m.mu.Lock()
		j := pickJob(s.stateLocked())
		if j == nil {
			s.workers.release()
			continue
		}
		m.startLocked(j)
		go s.work(j)
	}
}

// work runs j and then whatever the picker names next, for as long as it
// names something and the pool has a token to spare. The successor is picked
// in the critical section that retires its predecessor, so what follows a
// job depends on the state at the instant it ended — not on how soon the
// dispatcher goroutine gets scheduled beside a writer about to freeze. The
// token goes back first: a store already waiting on a shared pool is served
// before this one helps itself again, and the dispatcher takes over if so.
func (s *Store) work(j *maintJob) {
	m := &s.maint
	for j != nil {
		s.runJob(j)
		s.workers.release()
		m.mu.Lock()
		m.finishLocked(j)
		if j = pickJob(s.stateLocked()); j != nil && s.workers.tryAcquire() {
			m.startLocked(j)
		} else {
			j = nil
		}
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// runJob executes one started job and reports its result: to the caller of
// a request, or as the sticky background error.
func (s *Store) runJob(j *maintJob) {
	var err error
	switch j.kind {
	case jobFlush:
		err = s.flushFrozen()
	case jobCompact:
		if err = s.compactLevel(j.level); err == nil && j.done == nil {
			s.backgroundCompactions.Add(1)
		}
	case jobExclusive:
		err = j.fn()
	}
	if j.done != nil {
		j.done <- err
	} else if err != nil {
		// Fail stop: a discovered job has no caller to report to, its
		// cause is still there for the picker to find again, and a failed
		// flush leaves the frozen memtable stranded — commit leaders
		// stalled on it must wake to the error rather than wait forever.
		s.mu.Lock()
		s.setBgErrLocked(err)
		s.mu.Unlock()
	}
}

// awaitFlushed blocks while a frozen memtable is outstanding — the
// full-memtable stall. With charge set the wait goes to FlushStallNanos,
// and also to CompactionStallNanos when level compactions hold workers and
// no flush is running: compaction debt, not flush progress, is then what
// the writer waits for. It returns ErrClosed once Close was requested (the
// dispatcher may be gone, so a new freeze might never flush) and the
// sticky background error if there is one.
func (s *Store) awaitFlushed(charge bool) error {
	m := &s.maint
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.flushed < m.frozen && m.err == nil && !m.closing {
		blockedByCompaction := m.flushing == 0 && m.compacting > 0
		start := time.Now()
		m.cond.Wait()
		if d := time.Since(start).Nanoseconds(); charge {
			s.flushStallNanos.Add(d)
			if blockedByCompaction {
				s.compactionStallNanos.Add(d)
			}
		}
	}
	if m.closing {
		return ErrClosed
	}
	return m.err
}

// freezeAndSettle is Flush (force) and WaitMaintenance (not): freeze the
// memtable if it is due, then block until the tree is at rest — every
// memtable frozen up to here is on disk (one frozen later, by a concurrent
// writer, is not waited for until its flush runs), no level is over its
// target, no request is queued and nothing is in flight — or until the
// sticky background error or Close ends the wait.
func (s *Store) freezeAndSettle(force bool) error {
	m := &s.maint
	s.commitMu.Lock()
	err := s.ensureMemtableRoom(force)
	var target uint64
	m.note(func() { target = m.frozen }) // under commitMu: nobody else froze in between
	s.commitMu.Unlock()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		st := s.stateLocked()
		var debt int64
		for _, d := range st.debt {
			debt += d
		}
		switch {
		case m.err != nil:
			return m.err
		case m.flushed >= target && debt == 0 && st.head == nil && m.inflight == 0:
			return nil
		case m.closing:
			return ErrClosed
		}
		m.cond.Wait()
	}
}
