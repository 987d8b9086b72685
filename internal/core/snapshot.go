package core

import (
	"bytes"
	"context"
	"sync"

	"elsm/internal/lsm"
	"elsm/internal/record"
)

// This file implements the Snapshot interface for the P2 and raw stores.
// Both capture the same engine-level unit — lsm.Snapshot: the applied
// timestamp frontier, the memtable pair, and the reference-counted run set
// of the current version — so a snapshot's reads are repeatable bit for bit
// across concurrent flushes, compactions and WAL rotations; on eLSM-P2 each
// pinned run carries its trusted digest (readView), so every snapshot read
// is verified exactly like the live paths.

// p2Snapshot is the verified snapshot of the eLSM-P2 store.
type p2Snapshot struct {
	c    *Store
	view *readView
	once sync.Once
}

// Snapshot implements KV for eLSM-P2: it pins the current version — its
// runs with their trusted digests, and its memtables — as one consistent
// verified read session.
func (c *Store) Snapshot() (Snapshot, error) {
	var (
		v   *readView
		err error
	)
	c.enclave.ECall(func() { v, err = c.acquireView() })
	if err != nil {
		return nil, err
	}
	return &p2Snapshot{c: c, view: v}, nil
}

// Ts implements Snapshot.
func (s *p2Snapshot) Ts() uint64 { return s.view.ts() }

// GetAt implements Snapshot: the verified GET protocol against the pinned
// view (tsq clamped to the snapshot frontier).
func (s *p2Snapshot) GetAt(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if err := lsm.CtxErr(ctx); err != nil {
		return Result{}, err
	}
	var res Result
	var err error
	s.c.enclave.ECall(func() { res, err = s.view.getAt(key, keyHash(key), tsq) })
	return res, err
}

// IterAt implements Snapshot: the chunked verified stream over the pinned
// view. The iterator takes its own view reference, so closing the snapshot
// mid-iteration does not unpin the stream's runs.
func (s *p2Snapshot) IterAt(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	s.view.retain()
	return s.c.stream(ctx, s.view, start, end, tsq)
}

// Close implements Snapshot, releasing the snapshot's run pins. Idempotent.
func (s *p2Snapshot) Close() error {
	s.once.Do(s.view.release)
	return nil
}

// rawSnapshot is the unverified snapshot of the raw store (eLSM-P1 and the
// unsecured baseline): the same pinned engine view, read through the plain
// engine protocol (P1's integrity comes from block seals applied below
// this layer; unsecured has none).
type rawSnapshot struct {
	s      *RawStore
	esnap  *lsm.Snapshot
	refs   int // iterator references, guarded by mu
	closed bool
	mu     sync.Mutex
}

// newRawSnapshot pins the engine state for a raw-store snapshot.
func newRawSnapshot(s *RawStore) (*rawSnapshot, error) {
	esnap := s.engine.AcquireSnapshot()
	if err := esnap.Err(); err != nil {
		esnap.Release()
		return nil, err
	}
	return &rawSnapshot{s: s, esnap: esnap}, nil
}

// Ts implements Snapshot.
func (s *rawSnapshot) Ts() uint64 { return s.esnap.Ts() }

// GetAt implements Snapshot.
func (s *rawSnapshot) GetAt(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	return s.s.getAt(ctx, s.esnap, key, tsq)
}

// IterAt implements Snapshot: chunks stream through one enclave call each.
func (s *rawSnapshot) IterAt(ctx context.Context, start, end []byte, tsq uint64) Iterator {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return NewSliceIter(nil, nil, lsm.ErrClosed)
	}
	s.refs++
	s.mu.Unlock()
	return newChunkIter(ctx, s, bytes.Clone(start), bytes.Clone(end), tsq)
}

// fetchChunk implements chunkSource: one chunk per enclave call.
func (s *rawSnapshot) fetchChunk(cursor, end []byte, tsq uint64) (out []Result, next []byte, done bool, err error) {
	var recs []record.Record
	s.s.ecall(func() { recs, next, done, err = s.esnap.ScanChunk(cursor, end, tsq, s.s.iterChunkKeys) })
	if err != nil {
		return nil, nil, false, err
	}
	out = make([]Result, 0, len(recs))
	for _, rec := range recs {
		out = append(out, resultFrom(rec))
	}
	return out, next, done, nil
}

// release implements chunkSource: it drops an iterator reference, releasing
// the engine pins once the snapshot is closed and no iterators remain.
func (s *rawSnapshot) release() {
	s.mu.Lock()
	s.refs--
	last := s.closed && s.refs == 0
	s.mu.Unlock()
	if last {
		s.esnap.Release()
	}
}

// Close implements Snapshot. Idempotent; open iterators keep the engine
// pins until they close.
func (s *rawSnapshot) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	release := s.refs == 0
	s.mu.Unlock()
	if release {
		s.esnap.Release()
	}
	return nil
}
