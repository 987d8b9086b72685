package lsm

import (
	"encoding/json"
	"errors"
	"fmt"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// ErrReplicationGap reports a shipped group whose timestamps do not extend
// the follower's applied frontier contiguously — a dropped, reordered or
// replayed group. The follower fails stop and must re-bootstrap from a
// checkpoint.
var ErrReplicationGap = errors.New("lsm: replicated group does not extend the applied frontier")

// ReplicatedGroup is one durably committed commit group as observed by a
// replication sink: the group's records in append (= timestamp) order plus
// the timestamp interval (PrevTs, LastTs] they cover. Recs views the
// committing callers' buffers: it is valid for the duration of the sink
// call only — copy to retain.
type ReplicatedGroup struct {
	Recs   []record.Record
	PrevTs uint64 // applied frontier before the group
	LastTs uint64 // applied frontier after the group
	Bytes  int64  // payload size (sum of record sizes)
}

// GroupSink receives every durably committed group, in commit order, after
// the group has been applied to the memtable. It is invoked from the sync
// stage (single-threaded), so implementations see a strictly ordered,
// gap-free stream; they must not block for long — the commit pipeline's
// apply latency includes the call.
type GroupSink func(ReplicatedGroup)

// SetGroupSink installs (or, with nil, removes) the store's replication
// sink. At most one sink is supported; the leader hub fans out to
// followers.
func (s *Store) SetGroupSink(sink GroupSink) {
	if sink == nil {
		s.groupSink.Store(nil)
		return
	}
	s.groupSink.Store(&sink)
}

// notifyGroupSink publishes a committed group to the sink, if any.
func (s *Store) notifyGroupSink(recs []record.Record, lastTs uint64) {
	p := s.groupSink.Load()
	if p == nil || len(recs) == 0 {
		return
	}
	var bytes int64
	for i := range recs {
		bytes += int64(recs[i].Size())
	}
	(*p)(ReplicatedGroup{
		Recs:   recs,
		PrevTs: lastTs - uint64(len(recs)),
		LastTs: lastTs,
		Bytes:  bytes,
	})
}

// ApplyReplicated applies one shipped commit group on a follower — and a
// restored checkpoint's WAL tail — through the commit pipeline every local
// write takes: listener digest extension, WAL group append with COMMIT
// marker, fsync, listener commit mark, memtable apply, sink republish (a
// follower can lead a downstream replica). The follower's WAL chain, sealed
// frontier and on-disk state are therefore bit-compatible with a store that
// executed the writes locally. The caller has already authenticated the
// group (frame report + digest chain); the append stage enforces that it
// extends the applied frontier contiguously.
func (s *Store) ApplyReplicated(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	_, err := s.awaitReq(nil, &commitReq{recs: recs, done: make(chan struct{})})
	return err
}

// checkShipped is the append stage's check on records that arrive stamped:
// they must carry the timestamps last+1, last+2, … and a writable kind.
func checkShipped(recs []record.Record, last uint64) error {
	for i := range recs {
		if want := last + uint64(i) + 1; recs[i].Ts != want {
			return fmt.Errorf("%w: record %d carries ts %d, want %d", ErrReplicationGap, i, recs[i].Ts, want)
		}
		if recs[i].Kind != record.KindSet && recs[i].Kind != record.KindDelete {
			return fmt.Errorf("%w: record %d has kind %d", ErrReplicationGap, i, recs[i].Kind)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Checkpoint capture (leader side)

// CheckpointSource is one mutually consistent export unit: a pinned
// snapshot of the installed version plus a byte copy of the live WAL files
// (frozen logs in sequence order, then the active log) taken while the
// commit pipeline was quiescent. The WAL bytes are exactly the records in
// (runFrontier, Snap.Ts()] — the tail a follower must replay on top of the
// snapshot's runs — and their digest chain from zero equals the trusted
// durable WAL digest captured in the same window.
type CheckpointSource struct {
	Snap     *Snapshot
	WALNames []string
	WALData  [][]byte
}

// Release drops the source's snapshot pins. Idempotent.
func (cs *CheckpointSource) Release() { cs.Snap.Release() }

// CaptureCheckpoint quiesces the commit pipeline (commitMu held, sync stage
// drained — so durable == applied == last assigned timestamp) and, under
// one engine read lock (so no version install or WAL rotation can
// interleave), pins the current snapshot, copies the live WAL file bytes,
// and invokes capture — the authentication layer's window to read its
// digest frontier in the same consistent cut. Streaming the (immutable,
// pinned) files happens after the call returns, outside all locks.
func (s *Store) CaptureCheckpoint(capture func() error) (*CheckpointSource, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.drainSync()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	if err := s.bgErr; err != nil {
		s.mu.RUnlock()
		return nil, fmt.Errorf("lsm: background maintenance failed: %w", err)
	}
	// Inline snapshot acquisition: acquireSnapshot takes mu.RLock itself
	// and read locks are not re-entrant under writer pressure.
	snap := &Snapshot{s: s}
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
	src := &CheckpointSource{Snap: snap}
	names := s.liveWALFiles()
	var rerr error
	s.ocall(func() {
		for _, name := range names {
			f, err := s.fs.Open(name)
			if err != nil {
				rerr = fmt.Errorf("lsm: checkpoint wal open %s: %w", name, err)
				return
			}
			data := f.Bytes()
			if data != nil {
				data = append([]byte(nil), data...) // the live file keeps growing
			} else {
				data = make([]byte, f.Size())
				if _, err := f.ReadAt(data, 0); err != nil && len(data) > 0 {
					f.Close()
					rerr = fmt.Errorf("lsm: checkpoint wal read %s: %w", name, err)
					return
				}
			}
			f.Close()
			src.WALNames = append(src.WALNames, name)
			src.WALData = append(src.WALData, data)
		}
	})
	var cerr error
	if rerr == nil && capture != nil {
		cerr = capture()
	}
	s.mu.RUnlock()
	if rerr != nil || cerr != nil {
		snap.Release()
		if rerr != nil {
			return nil, rerr
		}
		return nil, cerr
	}
	return src, nil
}

// ---------------------------------------------------------------------------
// Checkpoint snapshot accessors

// CheckpointTable identifies one SSTable file of a checkpointed run.
type CheckpointTable struct {
	FileNum uint64
	Name    string
	Size    int64
}

// CheckpointRun describes one pinned run for export: identity, placement
// and the files carrying it.
type CheckpointRun struct {
	ID      uint64
	Level   int
	Tables  []CheckpointTable
	Bytes   int64
	Entries int
}

// CheckpointRuns lists the snapshot's runs in read order with the file
// inventory an importer needs to reconstruct the version.
func (sn *Snapshot) CheckpointRuns() []CheckpointRun {
	out := make([]CheckpointRun, 0, len(sn.runs))
	for i, r := range sn.runs {
		cr := CheckpointRun{ID: r.id, Level: sn.refs[i].Level, Bytes: r.bytes, Entries: r.entries}
		for _, th := range r.tables {
			cr.Tables = append(cr.Tables, CheckpointTable{
				FileNum: th.meta.FileNum,
				Name:    th.name,
				Size:    th.meta.Size,
			})
		}
		out = append(out, cr)
	}
	return out
}

// EncodeManifest serializes the snapshot's version as a MANIFEST the
// importer installs verbatim, with lastTs — the run frontier, i.e. the
// highest timestamp covered by the runs rather than the WAL tail — as the
// recovered timestamp base. NextFileNum/NextRunID are derived from the
// pinned version so follower-local flushes allocate past the imported
// names.
func (sn *Snapshot) EncodeManifest(lastTs uint64) ([]byte, error) {
	root := manifestRoot{
		NextFileNum: 1,
		NextRunID:   1,
		LastTs:      lastTs,
		Levels:      make([][]manifestRun, len(sn.s.levels)),
	}
	for i, r := range sn.runs {
		lvl := sn.refs[i].Level
		mr := manifestRun{ID: r.id, Nbytes: r.bytes}
		if r.id >= root.NextRunID {
			root.NextRunID = r.id + 1
		}
		for _, th := range r.tables {
			if th.meta.FileNum >= root.NextFileNum {
				root.NextFileNum = th.meta.FileNum + 1
			}
			mr.Files = append(mr.Files, manifestTable{
				FileNum:    th.meta.FileNum,
				Smallest:   th.meta.Smallest,
				SmallestTs: th.meta.SmallestTs,
				Largest:    th.meta.Largest,
				LargestTs:  th.meta.LargestTs,
				NumEntries: th.meta.NumEntries,
				NumBlocks:  th.meta.NumBlocks,
				Size:       th.meta.Size,
			})
		}
		root.Levels[lvl] = append(root.Levels[lvl], mr)
	}
	return json.Marshal(root)
}

// RunRecords streams every record (all versions, tombstones included) of
// the i-th pinned run in engine order — key ascending, timestamp
// descending. The importer rebuilds the run's Merkle digest from this
// stream and compares it against the attested frontier. The record handed
// to fn is a view of the iterator's current block, valid only until fn
// returns: an fn that keeps it clones it.
func (sn *Snapshot) RunRecords(i int, fn func(record.Record) error) error {
	if i < 0 || i >= len(sn.runs) {
		return ErrUnknownRun
	}
	it := newRunIter(sn.runs[i])
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Record()); err != nil {
			return err
		}
	}
	return nil
}

// ReadFileBytes reads one untrusted file completely — the exporter's path
// for streaming pinned SSTable bytes.
func (s *Store) ReadFileBytes(name string) ([]byte, error) {
	var data []byte
	var rerr error
	s.ocall(func() {
		var f vfs.File
		f, rerr = s.fs.Open(name)
		if rerr != nil {
			return
		}
		defer f.Close()
		b := f.Bytes()
		if b != nil {
			data = append([]byte(nil), b...)
			return
		}
		data = make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil && len(data) > 0 {
			rerr = err
		}
	})
	return data, rerr
}
