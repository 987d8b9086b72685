package lsm

import (
	"bytes"
	"sync"

	"elsm/internal/memtable"
	"elsm/internal/record"
)

// Snapshot is a pinned, immutable view of the store at one applied
// timestamp: the run set of the version current at acquisition (each run
// reference-counted so a concurrent compaction cannot delete its files),
// plus the memtable pair (active and frozen) live at that moment. Reads
// through the snapshot are clamped to its timestamp, so records committed
// later — which can only carry higher timestamps — never surface, records
// flushed later remain readable from the captured memtables, and the view
// is repeatable bit for bit no matter how much flushing, compaction or WAL
// rotation happens underneath.
//
// A Snapshot pins disk space (replaced runs survive until release) and must
// be Released exactly once; Release is idempotent. Runs are addressed by
// INDEX into Runs() — the snapshot's read order — not by run ID, keeping
// the hot acquisition path (one per verified point read) map-free.
type Snapshot struct {
	s      *Store
	ts     uint64
	mem    *memtable.Table
	frozen *memtable.Table // nil if no flush was in flight at acquisition
	refs   []RunRef
	runs   []*run // aligned with refs
	gauged bool   // counted in Stats.SnapshotsOpen (sessions, not point reads)
	closed bool   // the store was already closed at acquisition
	once   sync.Once
}

// AcquireSnapshot pins the current applied state as a read SESSION,
// counted in Stats.SnapshotsOpen. One engine-lock acquisition captures the
// timestamp frontier, the memtable pointers and the run set with their
// pins, so the snapshot can never straddle a version install.
func (s *Store) AcquireSnapshot() *Snapshot { return s.acquireSnapshot(true) }

// AcquireEphemeralSnapshot is AcquireSnapshot for a one-shot read: same
// pins and consistency, but not counted as an open session (a point GET
// should not flicker the SnapshotsOpen gauge).
func (s *Store) AcquireEphemeralSnapshot() *Snapshot { return s.acquireSnapshot(false) }

func (s *Store) acquireSnapshot(gauged bool) *Snapshot {
	snap := &Snapshot{s: s, gauged: gauged}
	s.mu.RLock()
	snap.closed = s.closed
	snap.ts = s.appliedTs.Load()
	snap.mem = s.mem
	snap.frozen = s.frozen
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for idx, r := range s.levels[lvl] {
			snap.refs = append(snap.refs, RunRef{ID: r.id, Level: lvl, Index: idx})
			s.retainRunLocked(r)
			snap.runs = append(snap.runs, r)
		}
	}
	s.mu.RUnlock()
	if gauged {
		s.snapshotsOpen.Add(1)
	}
	return snap
}

// Err reports ErrClosed for a snapshot acquired from a closed store: its
// table files are closed, so it must not be read (only released).
func (sn *Snapshot) Err() error {
	if sn.closed {
		return ErrClosed
	}
	return nil
}

// Ts returns the snapshot's timestamp: the last commit visible in it.
func (sn *Snapshot) Ts() uint64 { return sn.ts }

// Runs lists the snapshot's pinned runs in read order (newest data first).
func (sn *Snapshot) Runs() []RunRef { return sn.refs }

// Release drops the snapshot's run pins, allowing files of runs replaced
// since acquisition to be deleted. Idempotent.
func (sn *Snapshot) Release() {
	sn.once.Do(func() {
		for _, r := range sn.runs {
			sn.s.releaseRun(r)
		}
		if sn.gauged {
			sn.s.snapshotsOpen.Add(-1)
		}
	})
}

// clamp bounds a query timestamp to the snapshot's frontier.
func (sn *Snapshot) clamp(tsq uint64) uint64 {
	if tsq > sn.ts {
		return sn.ts
	}
	return tsq
}

// MemGet reads the snapshot's (trusted, in-enclave) memtables: the captured
// active table first, then the captured frozen one. Records committed after
// acquisition live in the same skiplist but carry timestamps beyond the
// clamp, so they never match.
func (sn *Snapshot) MemGet(key []byte, tsq uint64) (record.Record, bool) {
	tsq = sn.clamp(tsq)
	if rec, ok := sn.mem.Get(key, tsq); ok {
		return rec, true
	}
	if sn.frozen != nil {
		return sn.frozen.Get(key, tsq)
	}
	return record.Record{}, false
}

// MemIters returns iterators over the snapshot's (trusted, in-enclave)
// memtables: the captured active table, then the captured frozen one or nil.
// Every version of a key in the first is newer than every version in the
// second. They are not clamped: records committed after acquisition live in
// the same skiplist with timestamps beyond Ts(), and the caller skips them.
func (sn *Snapshot) MemIters() (active, frozen record.Iterator) {
	if sn.frozen != nil {
		frozen = sn.frozen.Iter()
	}
	return sn.mem.Iter(), frozen
}

// LookupRun performs the untrusted side of a one-level GET against the
// i-th pinned run (index into Runs()). No engine lock is needed: the run
// is immutable and its files outlive the snapshot.
func (sn *Snapshot) LookupRun(i int, key []byte, tsq uint64) (RunLookup, error) {
	if i < 0 || i >= len(sn.runs) {
		return RunLookup{}, ErrUnknownRun
	}
	return lookupRun(sn.runs[i], key, sn.clamp(tsq))
}

// SeekRun points it — the caller's, reusable from chunk to chunk — at the
// i-th pinned run and seeks it to the first record of the first key ≥ start:
// the untrusted side of a verified one-level SCAN (§5.4). What the iterator
// hands out are views of untrusted blocks; a block-read error surfaces from
// its Close.
func (sn *Snapshot) SeekRun(i int, it *RunIter, start []byte) error {
	if i < 0 || i >= len(sn.runs) {
		return ErrUnknownRun
	}
	*it = RunIter{tables: sn.runs[i].tables}
	it.SeekGE(start, record.MaxTs)
	return nil
}

// ScanRunChunk collects the i-th pinned run's records over user keys
// start ≤ k ≤ end, bounded to at most maxKeys distinct keys (0 = unlimited),
// with the two records bracketing them, all copied out with their proofs.
// Version chains are never split: the limit applies at key boundaries.
func (sn *Snapshot) ScanRunChunk(i int, start, end []byte, maxKeys int) (RunScan, error) {
	if i < 0 || i >= len(sn.runs) {
		return RunScan{}, ErrUnknownRun
	}
	return scanRunChunk(sn.runs[i], start, end, maxKeys)
}

// Get returns the newest record of key with Ts ≤ tsq in the snapshot — the
// raw (unverified) read used by the eLSM-P1 and unsecured stores.
// Tombstones are returned as-is.
func (sn *Snapshot) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	tsq = sn.clamp(tsq)
	if rec, ok := sn.MemGet(key, tsq); ok {
		return rec, true, nil
	}
	for _, r := range sn.runs {
		rec, ok, err := runGet(r, key, tsq)
		if err != nil {
			return record.Record{}, false, err
		}
		if ok {
			return rec, true, nil
		}
	}
	return record.Record{}, false, nil
}

// ScanChunk is the raw (unverified) merged range read over the pinned
// sources — newest version ≤ tsq per key in [start, end], tombstones
// resolved — bounded to at most maxKeys distinct keys (0 = unlimited). It
// returns the resolved records, the cursor to resume from (the first
// unprocessed key) and whether the range was exhausted. Keys whose newest
// version ≤ tsq is a tombstone count toward the limit but produce no record,
// so a chunk may be smaller than maxKeys — or empty — without being the last.
func (sn *Snapshot) ScanChunk(start, end []byte, tsq uint64, maxKeys int) (out []record.Record, next []byte, done bool, err error) {
	tsq = sn.clamp(tsq)
	sources := []mergeSource{{runID: MemtableRunID, iter: sn.mem.Iter()}}
	if sn.frozen != nil {
		sources = append(sources, mergeSource{runID: MemtableRunID, iter: sn.frozen.Iter()})
	}
	for _, r := range sn.runs {
		if len(r.tables) > 0 {
			sources = append(sources, mergeSource{runID: r.id, iter: newRunIter(r)})
		}
	}
	return scanChunkSources(sources, start, end, tsq, maxKeys)
}

// scanChunkSources resolves the merged sources into the newest version
// ≤ tsq per key, bounded to maxKeys distinct keys (0 = unlimited).
func scanChunkSources(sources []mergeSource, start, end []byte, tsq uint64, maxKeys int) (out []record.Record, next []byte, done bool, err error) {
	for _, src := range sources {
		src.iter.SeekGE(start, record.MaxTs)
	}
	m := newMergeIter(sources)
	defer m.Close()

	var lastKey []byte
	keys := 0
	resolved := false
	done = true
	for m.Valid() {
		rec, src := m.Record()
		if bytes.Compare(rec.Key, end) > 0 {
			break
		}
		if lastKey == nil || !bytes.Equal(rec.Key, lastKey) {
			if maxKeys > 0 && keys >= maxKeys {
				next = append([]byte(nil), rec.Key...)
				done = false
				break
			}
			keys++
			lastKey = append(lastKey[:0], rec.Key...)
			resolved = false
		}
		if !resolved && rec.Ts <= tsq {
			resolved = true
			if rec.Kind == record.KindSet {
				if src != MemtableRunID {
					rec = rec.Clone() // a run iterator's record is a view of its block
				}
				out = append(out, rec)
			}
		}
		m.Next()
	}
	return out, next, done, nil
}
