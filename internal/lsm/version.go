package lsm

import (
	"sync/atomic"

	"elsm/internal/memtable"
)

// version is one published, immutable read state of the store: the memtable
// pair, the run list in read order and whether the store had closed. Readers
// find the current one through Store.current and pin it with one reference
// (pin), as a LevelDB reader pins a Version, instead of taking the engine
// lock and a reference on every run.
//
// A version holds one reference on each of its runs, for as long as it has
// pins. The store holds one pin on the current version and drops it once the
// next is published; when the last pin goes, the version drops its run
// references, so a run's files are deleted exactly when the last version
// listing it, and the last job merging it, have let go.
type version struct {
	s    *Store
	pins atomic.Int64 // 0 once dead: pin never raises it from there

	// ts is the applied timestamp when the version was published. Every
	// record its runs hold is at or below it, and every record at or below
	// it is in its memtables or runs.
	ts     uint64
	mem    *memtable.Table
	frozen *memtable.Table // nil: no flush in flight
	closed bool
	refs   []RunRef // read order, aligned with runs
	runs   []*run

	// The lists of a version of at most inlineRuns runs live here, so
	// publishing one is one allocation: a small memtable freezes often.
	refsBuf [inlineRuns]RunRef
	runsBuf [inlineRuns]*run
}

// inlineRuns is how many runs a version holds without allocating its lists.
const inlineRuns = 8

// publishLocked makes the engine's current state — levels, memtables,
// closed — the version readers pin, and returns the version it replaces,
// whose store pin the caller drops with unpin once it has released s.mu (the
// last pin on it may delete run files). Caller holds s.mu for writing.
//
// Only state that is final is published: an install publishes once its
// version is saved and the listener's Job.Installed has returned the new
// run's value, and the undo of a failed install restores levels the
// published version never stopped listing.
func (s *Store) publishLocked() *version {
	v := &version{s: s, ts: s.appliedTs.Load(), mem: s.mem, frozen: s.frozen, closed: s.closed}
	n := 0
	for _, runs := range s.levels {
		n += len(runs)
	}
	if n <= inlineRuns {
		v.refs, v.runs = v.refsBuf[:0], v.runsBuf[:0]
	} else {
		v.refs, v.runs = make([]RunRef, 0, n), make([]*run, 0, n)
	}
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for idx, r := range s.levels[lvl] {
			r.refs.Add(1)
			v.refs = append(v.refs, RunRef{ID: r.id, Level: lvl, Index: idx, Trust: r.trust})
			v.runs = append(v.runs, r)
		}
	}
	v.pins.Store(1) // the store's
	s.versionMu.Lock()
	s.versions = append(s.versions, v)
	s.versionMu.Unlock()
	return s.current.Swap(v)
}

// pin takes a reference on the current version: a load and an
// increment-if-nonzero. A version whose pins reached zero has been replaced
// (the store drops its pin only after publishing the next), so the loop
// reloads and finds the newer one.
func (s *Store) pin() *version {
	for {
		v := s.current.Load()
		if n := v.pins.Load(); n > 0 && v.pins.CompareAndSwap(n, n+1) {
			return v
		}
	}
}

// unpin drops one reference on v, nil included. The last one retires v and
// drops its run references, deleting the files of runs no version or job
// holds any more. So it is called without s.mu, unless every run of v is
// listed by the version that replaced it (a freeze, Close).
func (v *version) unpin() {
	if v == nil || v.pins.Add(-1) > 0 {
		return
	}
	s := v.s
	s.versionMu.Lock()
	for i, w := range s.versions {
		if w == v {
			last := len(s.versions) - 1
			s.versions[i], s.versions[last] = s.versions[last], nil
			s.versions = s.versions[:last]
			break
		}
	}
	s.versionMu.Unlock()
	s.releaseRunRefs(v.runs)
}

// pinnedRunsGauge is Stats.PinnedRuns: the run references held beyond the
// current version's own — one per run of a version for each reader pinning
// it, and one per input run of each job in flight. A retired version counts
// every one of its pins.
func (s *Store) pinnedRunsGauge() uint64 {
	cur := s.current.Load()
	total := s.jobPins.Load()
	s.versionMu.Lock()
	for _, v := range s.versions {
		pins := v.pins.Load()
		if v == cur {
			pins-- // the store's
		}
		total += max(pins, 0) * int64(len(v.runs))
	}
	s.versionMu.Unlock()
	return uint64(max(total, 0))
}
