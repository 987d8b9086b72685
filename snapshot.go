package elsm

import "elsm/internal/core"

// Snapshot is a consistent verified read session: it captures the store's
// current trusted digest snapshot and pins its runs and memtable view, so
// every read through it — point lookups, historical lookups, streaming
// iterators, materialized scans — observes the SAME state, byte for byte,
// no matter how many concurrent writes, flushes, compactions or WAL
// rotations happen underneath. On authenticated modes every snapshot read
// is verified for integrity, freshness and completeness exactly like the
// live paths, against the captured digest forest.
//
// A snapshot holds disk space (runs replaced by compaction survive until
// release) and an entry in Stats.SnapshotsOpen; Close releases the pins and
// is idempotent. Iterators opened from a snapshot keep their own pins until
// closed, so closing the snapshot mid-iteration is safe.
//
// Snapshots replace the ad-hoc "remember a timestamp and juggle GetAt"
// pattern: Ts exposes the captured trusted timestamp, and GetAt/IterAt
// still accept historical timestamps within the snapshot (clamped to Ts).
type Snapshot struct {
	reads
	inner core.Snapshot
}

// reader implements readSource: the pinned view.
func (sn *Snapshot) reader() core.Reader { return sn.inner }

// Snapshot captures the current verified state as a read session. The
// returned snapshot observes every commit acknowledged as durable before
// the call.
func (s *Store) Snapshot() (*Snapshot, error) {
	inner, err := s.base().Snapshot()
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{inner: inner}
	sn.reads = reads{enc: s.enc, src: sn}
	return sn, nil
}

// Ts returns the snapshot's trusted timestamp: the commit timestamp of the
// newest write visible in it.
func (sn *Snapshot) Ts() uint64 { return sn.inner.Ts() }

// Close releases the snapshot's pins. Idempotent.
func (sn *Snapshot) Close() error { return sn.inner.Close() }
