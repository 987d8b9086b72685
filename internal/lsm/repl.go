package lsm

import (
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
// committing callers' buffers, and the slice itself is the commit worker's,
// reused for the next group: it is valid for the duration of the sink call
// only — a sink that retains the group encodes it (the leader hub keeps it
// as wal.AppendGroup writes it).
type ReplicatedGroup struct {
	Recs   []record.Record
	PrevTs uint64 // applied frontier before the group
	LastTs uint64 // applied frontier after the group
}

// GroupSink receives every durably committed group, in commit order, after
// the group has been applied to the memtable. It is invoked from the commit
// worker (single-threaded), so implementations see a strictly ordered,
// gap-free stream; they must not block for long — the group's apply latency
// includes the call.
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
	(*p)(ReplicatedGroup{
		Recs:   recs,
		PrevTs: lastTs - uint64(len(recs)),
		LastTs: lastTs,
	})
}

// ApplyReplicated applies one shipped commit group on a follower — and a
// restored checkpoint's WAL tail — through the commit pipeline every local
// write takes: the listener's tag, WAL group append with COMMIT marker,
// fsync, the listener's durable frontier, memtable apply, sink republish (a
// follower can lead a downstream replica). The follower's WAL tags and
// sealed frontier are therefore those of a store
// that executed the writes locally: a shipped group arrives as
// wal.AppendGroup encodes it, wal.Replay decodes it, and the append here
// writes those records again under the follower's own tag. recs may view
// the caller's buffer, which must stay unchanged until the call returns.
// The caller has already authenticated the group (the frame's report); the
// commit worker enforces that it extends the applied frontier contiguously.
func (s *Store) ApplyReplicated(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	req := newSyncReq()
	req.recs = recs
	_, err := s.awaitReq(nil, req)
	return err
}

// checkShipped is the commit worker's check on records that arrive stamped:
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
// snapshot's runs — and every group carries the tag the listener wrote at
// its position, up to the durable frontier captured in the same window.
type CheckpointSource struct {
	Snap     *Snapshot
	WALNames []string
	WALData  [][]byte
}

// Release drops the source's snapshot pins. Idempotent.
func (cs *CheckpointSource) Release() { cs.Snap.Release() }

// CaptureCheckpoint quiesces the commit pipeline (commitMu held, so no
// group is in flight and durable == applied == last assigned timestamp) and, under
// one engine read lock (so no version install or WAL rotation can
// interleave), pins the current snapshot, copies the live WAL file bytes,
// and invokes capture — the authentication layer's window to read its
// digest frontier in the same consistent cut. Streaming the (immutable,
// pinned) files happens after the call returns, outside all locks.
func (s *Store) CaptureCheckpoint(capture func() error) (*CheckpointSource, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	if err := s.bgErr; err != nil {
		s.mu.RUnlock()
		return nil, fmt.Errorf("lsm: background maintenance failed: %w", err)
	}
	// commitMu is held, so the applied timestamp is every assigned one, and
	// the read lock keeps the version current: the pin is the one every
	// snapshot takes, and no lock is re-entered.
	snap := new(Snapshot)
	s.AcquireSnapshotInto(snap, false)
	src := &CheckpointSource{Snap: snap}
	names := s.liveWALFiles()
	var rerr error
	s.ocall(func() {
		for _, name := range names {
			data, err := vfs.ReadFile(s.fs, name) // a copy: the live file keeps growing
			if err != nil {
				rerr = fmt.Errorf("lsm: checkpoint wal read %s: %w", name, err)
				return
			}
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
	Name string
	Size int64
}

// CheckpointRun describes one pinned run for export: identity, placement
// and the files carrying it.
type CheckpointRun struct {
	ID     uint64
	Level  int
	Tables []CheckpointTable
}

// CheckpointRuns lists the snapshot's runs in read order with the file
// inventory an importer needs to reconstruct the version.
func (sn *Snapshot) CheckpointRuns() []CheckpointRun {
	out := make([]CheckpointRun, 0, len(sn.v.runs))
	for i, r := range sn.v.runs {
		cr := CheckpointRun{ID: r.id, Level: sn.v.refs[i].Level}
		for _, th := range r.tables {
			cr.Tables = append(cr.Tables, CheckpointTable{Name: tableName(th.fileNum), Size: th.table.Size()})
		}
		out = append(out, cr)
	}
	return out
}

// EncodeVersion serializes the snapshot's version as the importer's
// engine loads it (VersionStore.LoadVersion), with lastTs — the run
// frontier, i.e. the highest timestamp covered by the runs rather than the
// WAL tail — as the recovered timestamp base. The importer's recovery
// derives the next file number and run ID from the runs, so follower-local
// flushes allocate past the imported names.
func (sn *Snapshot) EncodeVersion(lastTs uint64) ([]byte, error) {
	levels := make([][]*run, len(sn.v.s.levels))
	for i, r := range sn.v.runs {
		lvl := sn.v.refs[i].Level
		levels[lvl] = append(levels[lvl], r)
	}
	return encodeManifest(levels, lastTs, 0)
}

// RunRecords streams every record (all versions, tombstones included) of
// the i-th pinned run in engine order — key ascending, timestamp
// descending. The importer rebuilds the run's Merkle digest from this
// stream and compares it against the attested frontier. The record handed
// to fn is a view of the iterator's current block, valid only until fn
// returns: an fn that keeps it clones it.
func (sn *Snapshot) RunRecords(i int, fn func(record.Record) error) error {
	if i < 0 || i >= len(sn.v.runs) {
		return ErrUnknownRun
	}
	it := newRunIter(sn.v.runs[i])
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Record()); err != nil {
			return err
		}
	}
	return nil
}
