package lsm

import (
	"bytes"
	"sync/atomic"

	"elsm/internal/blockcache"
	"elsm/internal/memtable"
	"elsm/internal/record"
)

// Snapshot is a pinned, immutable view of the store at one applied
// timestamp: one pin on the version current at acquisition — its run set,
// whose files cannot be deleted while the pin is held, and the memtable pair
// (active and frozen) live at that moment. Reads through the snapshot are
// clamped to its timestamp, so records committed later — which can only
// carry higher timestamps — never surface, records flushed later remain
// readable from the captured memtables, and the view is repeatable bit for
// bit no matter how much flushing, compaction or WAL rotation happens
// underneath.
//
// A Snapshot pins disk space (replaced runs survive until release) and must
// be Released exactly once; Release is idempotent. Runs are addressed by
// INDEX into Runs() — the snapshot's read order — not by run ID, keeping
// the hot acquisition path (one per verified point read) map-free.
type Snapshot struct {
	v        *version // its slices are shared and immutable: never cleared
	ts       uint64
	gauged   bool // counted in Stats.SnapshotsOpen (sessions, not point reads)
	released atomic.Bool
}

// AcquireSnapshot pins the current applied state as a read SESSION,
// counted in Stats.SnapshotsOpen.
func (s *Store) AcquireSnapshot() *Snapshot {
	sn := new(Snapshot)
	s.AcquireSnapshotInto(sn, true)
	return sn
}

// AcquireEphemeralSnapshot is AcquireSnapshot for a one-shot read: same
// pins and consistency, but not counted as an open session (a point GET
// should not flicker the SnapshotsOpen gauge).
func (s *Store) AcquireEphemeralSnapshot() *Snapshot {
	sn := new(Snapshot)
	s.AcquireSnapshotInto(sn, false)
	return sn
}

// AcquireSnapshotInto is AcquireSnapshot (session) or
// AcquireEphemeralSnapshot into sn, a zero or released Snapshot: a reader
// that keeps one Snapshot from read to read acquires without allocating.
// It takes no lock and no per-run reference: it loads the applied
// timestamp, then pins the current version.
//
// Why that order gives a snapshot holding every record at or below its
// timestamp: a record at or below the loaded timestamp t was applied to the
// memtable then active before t was stored. Every change of memtables or
// levels publishes a whole new version, and the version pinned was current
// after t was loaded, so it lists that memtable, or the frozen table it
// became, or the run it was flushed into. The version's own ts bounds its
// runs from above (a run is flushed only from records already applied), and
// every record at or below it is in the version too; the snapshot's
// timestamp is the larger of the two, so compaction's version GC can never
// have dropped, from a run the snapshot reads, a version the snapshot should
// see. What lies above the timestamp in the shared memtables is clamped away.
func (s *Store) AcquireSnapshotInto(sn *Snapshot, session bool) {
	t := s.appliedTs.Load()
	v := s.pin()
	*sn = Snapshot{v: v, ts: max(t, v.ts), gauged: session}
	if session {
		s.snapshotsOpen.Add(1)
	}
}

// Err reports ErrClosed for a snapshot acquired from a closed store: its
// table files are closed, so it must not be read (only released).
func (sn *Snapshot) Err() error {
	if sn.v.closed {
		return ErrClosed
	}
	return nil
}

// Ts returns the snapshot's timestamp: the last commit visible in it.
func (sn *Snapshot) Ts() uint64 { return sn.ts }

// Runs lists the snapshot's pinned runs in read order (newest data first).
// The slice is shared with every snapshot of the same version: read only.
func (sn *Snapshot) Runs() []RunRef { return sn.v.refs }

// Release drops the snapshot's version pin, allowing files of runs replaced
// since acquisition to be deleted: a released Snapshot must not be read.
// Idempotent.
func (sn *Snapshot) Release() {
	if !sn.released.CompareAndSwap(false, true) {
		return
	}
	if sn.gauged {
		sn.v.s.snapshotsOpen.Add(-1)
	}
	sn.v.unpin()
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
	if rec, ok := sn.v.mem.Get(key, tsq); ok {
		return rec, true
	}
	if sn.v.frozen != nil {
		return sn.v.frozen.Get(key, tsq)
	}
	return record.Record{}, false
}

// MemTables returns the snapshot's (trusted, in-enclave) memtables: the
// captured active table, then the captured frozen one or nil. Every version
// of a key in the first is newer than every version in the second. Reads of
// them are not clamped: records committed after acquisition live in the same
// skiplist with timestamps beyond Ts(), and the caller skips them.
func (sn *Snapshot) MemTables() (active, frozen *memtable.Table) {
	return sn.v.mem, sn.v.frozen
}

// LookupRunViews performs the untrusted side of a one-level GET against the
// i-th pinned run (index into Runs()), handing out views of the blocks it
// read, pinned into pins. No engine lock is needed: the run is immutable and
// its files outlive the snapshot.
func (sn *Snapshot) LookupRunViews(i int, key []byte, tsq uint64, pins *blockcache.Pins) (RunViews, error) {
	if i < 0 || i >= len(sn.v.runs) {
		return RunViews{}, ErrUnknownRun
	}
	return lookupRun(sn.v.runs[i], key, sn.clamp(tsq), pins)
}

// LookupRun is LookupRunViews with the views copied out.
func (sn *Snapshot) LookupRun(i int, key []byte, tsq uint64) (RunLookup, error) {
	v, err := sn.LookupRunViews(i, key, tsq, nil)
	if err != nil {
		return RunLookup{}, err
	}
	return v.clone(), nil
}

// SeekRun points it — the caller's, reusable from chunk to chunk — at the
// i-th pinned run and seeks it to the first record of the first key ≥ start:
// the untrusted side of a verified one-level SCAN (§5.4). What the iterator
// hands out are views of untrusted blocks, pinned into pins if it is
// non-nil; a block-read error surfaces from its Close.
func (sn *Snapshot) SeekRun(i int, it *RunIter, start []byte, pins *blockcache.Pins) error {
	if i < 0 || i >= len(sn.v.runs) {
		return ErrUnknownRun
	}
	*it = RunIter{tables: sn.v.runs[i].tables, pins: pins}
	it.SeekGE(start, record.MaxTs)
	return nil
}

// ScanRunChunk collects the i-th pinned run's records over user keys
// start ≤ k ≤ end, bounded to at most maxKeys distinct keys (0 = unlimited),
// with the two records bracketing them, all copied out with their proofs.
// Version chains are never split: the limit applies at key boundaries.
func (sn *Snapshot) ScanRunChunk(i int, start, end []byte, maxKeys int) (RunScan, error) {
	if i < 0 || i >= len(sn.v.runs) {
		return RunScan{}, ErrUnknownRun
	}
	return scanRunChunk(sn.v.runs[i], start, end, maxKeys)
}

// Get returns the newest record of key with Ts ≤ tsq in the snapshot — the
// raw (unverified) read used by the eLSM-P1 and unsecured stores.
// Tombstones are returned as-is.
func (sn *Snapshot) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	tsq = sn.clamp(tsq)
	if rec, ok := sn.MemGet(key, tsq); ok {
		return rec, true, nil
	}
	for _, r := range sn.v.runs { // lock-free: the pinned runs are immutable
		ti := seekTable(r.tables, key, tsq)
		if ti >= len(r.tables) {
			continue
		}
		rec, ok, err := r.tables[ti].table.Get(key, tsq)
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
	sources := []mergeSource{{runID: MemtableRunID, iter: sn.v.mem.Iter()}}
	if sn.v.frozen != nil {
		sources = append(sources, mergeSource{runID: MemtableRunID, iter: sn.v.frozen.Iter()})
	}
	for _, r := range sn.v.runs {
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
