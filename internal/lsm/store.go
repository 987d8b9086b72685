package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"elsm/internal/hashutil"
	"elsm/internal/memtable"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// Well-known file names in the untrusted FS. The active WAL is always
// walName; when the memtable freezes, the active log is renamed to a
// frozenWALPrefix-numbered file that lives until the frozen table's flush
// durably installs (recovery replays frozen logs in sequence order, then the
// active log — the digest chain spans the concatenation).
const (
	walName         = "wal.log"
	frozenWALPrefix = "wal-frozen-"
	manifestName    = "MANIFEST"
	manifestTmp     = "MANIFEST.tmp"
)

// frozenWALName formats the name of a rotated (frozen) log.
func frozenWALName(seq uint64) string {
	return fmt.Sprintf("%s%08d.log", frozenWALPrefix, seq)
}

// frozenWALSeq parses the sequence number out of a frozen log name.
func frozenWALSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, frozenWALPrefix) || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, frozenWALPrefix), ".log"), "%d", &seq)
	return seq, err == nil
}

// Store errors.
var (
	ErrClosed        = errors.New("lsm: store closed")
	ErrAborted       = errors.New("lsm: compaction aborted by listener")
	ErrBadBulkLoad   = errors.New("lsm: bulk load records not sorted")
	ErrUnknownRun    = errors.New("lsm: unknown run")
	ErrManifestParse = errors.New("lsm: manifest parse failure")
	// ErrWALSyncFailed is the sticky fail-stop after a WAL fsync error:
	// the group that hit the failure AND every commit attempted afterwards
	// fail with it, because the kernel may have dropped any dirty log page
	// once fsync reported an error. Reopening the store recovers — replay
	// truncates the log back to a verified prefix.
	ErrWALSyncFailed = errors.New("lsm: wal sync failed")
)

// tableHandle pairs an open SSTable with its file.
type tableHandle struct {
	meta  sstable.Meta
	table *sstable.Table
	name  string
}

// run is one immutable sorted run of tables (non-overlapping, key-ordered).
// refs counts reasons the run's files must stay on disk: membership in the
// current version holds one reference, and every pin (a compaction reading
// it as input, a verified iterator scanning it) holds another. Files are
// deleted only when the count reaches zero, so an in-flight read never races
// a compaction deleting its inputs.
type run struct {
	id      uint64
	tables  []*tableHandle
	bytes   int64
	entries int
	refs    atomic.Int32
}

// fileNums lists the run's table file numbers.
func (r *run) fileNums() []uint64 {
	nums := make([]uint64, 0, len(r.tables))
	for _, th := range r.tables {
		nums = append(nums, th.meta.FileNum)
	}
	return nums
}

// openFile tracks an open untrusted file and its optional mmap views.
type openFile struct {
	file       vfs.File
	view       []byte      // mmap read path view (MmapReads)
	pinned     []byte      // compaction-time bulk-loaded view (§5.3 step m1)
	metaRegion *sgx.Region // in-enclave index/filter footprint
}

// RunRef identifies one run in read order (newest data first).
type RunRef struct {
	ID    uint64
	Level int
	Index int // position within the level (0 = newest)
}

// Stats counts engine-level events.
type Stats struct {
	Flushes         uint64
	Compactions     uint64
	BytesFlushed    uint64
	BytesCompacted  uint64
	RecordsDropped  uint64
	ManifestUpdates uint64
	// WALSyncs counts WAL fsyncs issued by the commit pipeline — under
	// group commit, far fewer than committed operations.
	WALSyncs uint64
	// GroupCommits counts commit groups; GroupedRecords counts the records
	// they carried (GroupedRecords/GroupCommits = mean group size).
	GroupCommits   uint64
	GroupedRecords uint64
	// WALTornRecords counts records dropped at recovery because their
	// commit group never completed (crash mid-append).
	WALTornRecords uint64
	// FlushStallNanos is time commit leaders spent blocked because the
	// active memtable filled while the previous frozen memtable was still
	// flushing (the background flush could not keep up with the write rate).
	FlushStallNanos uint64
	// CompactionStallNanos is the portion of those stalls during which level
	// compactions held maintenance workers and no flush was running
	// (compaction debt delaying the flush the writer is waiting on).
	CompactionStallNanos uint64
	// BackgroundCompactions counts level compactions the scheduler
	// discovered from level debt (not requested through Compact).
	BackgroundCompactions uint64
	// CompactionDebtBytes is the current total bytes by which levels
	// exceed their size targets — the backlog the scheduler orders
	// background compactions by. CompactionDebtByLevel is the per-level
	// breakdown (index 0 unused, like the level vector).
	CompactionDebtBytes   uint64
	CompactionDebtByLevel []uint64
	// ParallelCompactions is the number of maintenance jobs (flushes,
	// compactions, bulk loads) executing right now on this store.
	ParallelCompactions uint64
	// CompactionWorkersBusy is the number of busy tokens in the worker
	// pool — pool-wide when the pool is shared across shards.
	CompactionWorkersBusy uint64
	// PinnedRuns is the current number of run pins held beyond version
	// membership (compaction inputs being merged, iterator snapshots).
	PinnedRuns uint64
	// SnapshotsOpen is the current number of open engine snapshots
	// (verified read sessions pinning runs and memtables).
	SnapshotsOpen uint64
	// AsyncCommitsInFlight is the current number of CommitAsync commits
	// acknowledged but not yet durable (bounded by MaxAsyncCommitBacklog).
	AsyncCommitsInFlight uint64
	// GroupCommitWindowNanos is the resolved leader batching window: the
	// configured value, or — with GroupCommitWindow = AutoGroupCommitWindow —
	// the value currently derived from the fsync-latency EWMA.
	GroupCommitWindowNanos uint64
	// FsyncEWMANanos is the exponentially-weighted moving average of
	// observed WAL fsync latency feeding the adaptive window.
	FsyncEWMANanos uint64
}

// Store is the LSM engine. Reads may run concurrently; writes flow through
// the two-stage group-commit pipeline (commit.go): an append worker coalesces
// concurrent commits into groups and appends them to the WAL, a sync worker
// fsyncs and applies them — so the append of group N+1 overlaps the fsync of
// group N. Flush and compaction run on a pool of maintenance workers
// (scheduler.go) scheduled by compaction debt over disjoint level pairs:
// the commit path only freezes the full memtable (an O(1) pointer swap plus
// a WAL rotation) and the scheduler discovers the flush, so writers never
// wait on a multi-megabyte merge unless flushes fall behind the write rate
// (Stats.FlushStallNanos counts exactly that).
//
// Lock order: commitMu > installMu > mu > gc.syncMu / maint.mu > the
// listener's own locks. commitMu serializes append epochs — a commit
// group's WAL append, a freeze's WAL rotation (which first drains the sync
// stage, so no fsync is in flight across the rename), close — without
// covering fsyncs and without blocking readers, which only take mu.RLock
// and therefore never wait on storage. installMu serializes the install
// phase (manifest write + digest swap + post-install seal) across
// concurrent maintenance jobs. Maintenance jobs take mu only for the
// snapshot and install phases of a rewrite, never commitMu.
type Store struct {
	opts     Options
	fs       vfs.FS
	enclave  *sgx.Enclave
	listener EventListener

	commitMu sync.Mutex // guards walW append/sync/rotate epochs

	// installMu serializes phase 3 of maintenance jobs end to end — from
	// the listener's Job.Verify (which stages the transition seal) through
	// the manifest write, Job.Installed and Job.Committed (or Job.Abort).
	// With parallel phase-2 workers this is what keeps "one version install
	// in flight": manifest writes never reorder, and the listener's
	// single-slot staged seal is never clobbered by a concurrent job's
	// install. Acquired BEFORE s.mu.
	installMu sync.Mutex

	mu     sync.RWMutex    // guards mem, frozen, levels, bgErr
	mem    *memtable.Table // active write buffer
	frozen *memtable.Table // immutable predecessor being flushed (nil: none)
	walW   *wal.Writer
	levels [][]*run // levels[0] unused; levels[i] newest-run-first

	// frozenWALs are rotated log files carrying the frozen memtable's (and,
	// after recovery, any predecessor's) records; deleted at flush install.
	frozenWALs []string
	nextWALSeq uint64

	// flushedWALSeq is the manifest's WAL watermark: every frozen log with
	// a sequence below it has been flushed into an installed run. Recovery
	// must IGNORE (and delete) such logs — a crash between the manifest
	// install and the frozen-log deletion leaves them on disk, and
	// replaying them would double-apply records the manifest already
	// accounts for.
	flushedWALSeq uint64

	// bgErr is the first background maintenance failure; the store fails
	// stop — subsequent commits and maintenance return it.
	bgErr error

	// walErr is the first WAL fsync failure and is STICKY: once one fsync
	// fails, the durability of everything past the durable frontier is
	// unknown (the kernel may have dropped dirty pages), so every later
	// commit attempt fails with ErrWALSyncFailed until the store is
	// reopened and recovery re-establishes a verified log prefix.
	walErr error

	gc    committer   // two-stage group-commit pipeline (commit.go)
	maint maintenance // flush/compaction scheduler (scheduler.go)

	// workers is the maintenance worker-token pool (possibly shared with
	// other stores — see Options.Workers).
	workers *WorkerPool

	// levelBytesGauge mirrors the per-level byte totals of s.levels,
	// updated under s.mu at every install/recovery but READ lock-free by
	// the scheduler's debt ordering (maint.mu must never wait on s.mu —
	// a freeze holds s.mu while taking maint.mu).
	levelBytesGauge []atomic.Int64

	// asyncSlots is the MaxAsyncCommitBacklog admission semaphore;
	// asyncInFlight mirrors its occupancy for Stats.
	asyncSlots    chan struct{}
	asyncInFlight atomic.Int64

	// snapshotsOpen gauges AcquireSnapshot handles not yet released.
	snapshotsOpen atomic.Int64

	// groupSink, when set, receives every durably committed group in
	// commit order (replication shipping, repl.go).
	groupSink atomic.Pointer[GroupSink]

	fileMu sync.RWMutex
	files  map[uint64]*openFile

	nextFileNum atomic.Uint64 // consumed lock-free by the build phase
	nextRunID   uint64        // guarded by mu
	lastTs      atomic.Uint64
	// appliedTs is the last timestamp durably applied to the memtable: the
	// pipelined committer assigns timestamps (lastTs) at append but makes
	// records visible only after their group's fsync, so reads and
	// snapshots anchor to appliedTs — every record ≤ appliedTs is visible,
	// every record > appliedTs is not yet. Stored under mu in apply order.
	appliedTs atomic.Uint64
	closed    bool

	walReplayDigest hashutil.Hash
	replayedRecords int
	walTornRecords  int

	// Event counters, updated without mu (the commit pipeline and the
	// maintenance worker run outside the engine lock) and folded into
	// Stats().
	walSyncs              atomic.Uint64
	groupCommits          atomic.Uint64
	groupedRecords        atomic.Uint64
	flushes               atomic.Uint64
	compactions           atomic.Uint64
	bytesFlushed          atomic.Uint64
	bytesCompacted        atomic.Uint64
	recordsDropped        atomic.Uint64
	manifestUpdates       atomic.Uint64
	flushStallNanos       atomic.Int64
	compactionStallNanos  atomic.Int64
	backgroundCompactions atomic.Uint64
	pinnedRuns            atomic.Int64
	fsyncEWMANanos        atomic.Int64
}

// Open creates or recovers a store.
func Open(opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.MmapReads && opts.Transform != nil {
		return nil, errors.New("lsm: mmap reads are incompatible with block transforms (eLSM-P1 cannot mmap, §6.3)")
	}
	s := &Store{
		opts:      opts,
		fs:        opts.FS,
		enclave:   opts.Enclave,
		listener:  opts.Listener,
		mem:       memtable.New(opts.Enclave),
		levels:    make([][]*run, opts.MaxLevels+1),
		files:     make(map[uint64]*openFile),
		nextRunID: 1,
	}
	s.nextFileNum.Store(1)
	s.nextWALSeq = 1
	s.workers = opts.Workers
	s.levelBytesGauge = make([]atomic.Int64, len(s.levels))
	if err := s.recover(); err != nil {
		return nil, err
	}
	if s.walTornRecords > 0 {
		s.opts.Obs.Event(obs.EventTornTail,
			"recovery truncated %d torn record(s) off the active WAL tail", s.walTornRecords)
	}
	s.refreshLevelBytesLocked()
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	// Everything recovered is visible: the applied frontier starts at the
	// recovered timestamp high-water mark.
	s.appliedTs.Store(s.lastTs.Load())
	s.startMaintenance()
	s.startCommitter()
	return s, nil
}

// ocall runs fn in the untrusted world, charging world-switch cost.
func (s *Store) ocall(fn func()) { s.enclave.OCall(fn) }

// tableName formats an SSTable file name.
func tableName(fileNum uint64) string { return fmt.Sprintf("%06d.sst", fileNum) }

// ---------------------------------------------------------------------------
// Manifest

type manifestTable struct {
	FileNum    uint64 `json:"file"`
	Smallest   []byte `json:"smallest"`
	SmallestTs uint64 `json:"smallestTs"`
	Largest    []byte `json:"largest"`
	LargestTs  uint64 `json:"largestTs"`
	NumEntries int    `json:"entries"`
	NumBlocks  int    `json:"blocks"`
	Size       int64  `json:"size"`
}

type manifestRun struct {
	ID     uint64          `json:"id"`
	Files  []manifestTable `json:"files"`
	Nbytes int64           `json:"bytes"`
}

type manifestRoot struct {
	NextFileNum uint64          `json:"nextFile"`
	NextRunID   uint64          `json:"nextRun"`
	LastTs      uint64          `json:"lastTs"`
	Levels      [][]manifestRun `json:"levels"`
	// FlushedWALSeq marks frozen logs below this sequence as flushed into
	// the runs this manifest lists; recovery discards them instead of
	// replaying (crash window between manifest install and log deletion).
	FlushedWALSeq uint64 `json:"flushedWALSeq,omitempty"`
}

// refreshLevelBytesLocked recomputes the lock-free per-level byte gauges
// from the level vector. Called under s.mu after every level mutation
// (install, rollback, recovery) so the scheduler's debt ordering reads a
// value at most one install stale.
func (s *Store) refreshLevelBytesLocked() {
	for lvl := range s.levels {
		var total int64
		for _, r := range s.levels[lvl] {
			total += r.bytes
		}
		s.levelBytesGauge[lvl].Store(total)
	}
}

// persistManifestLocked writes the current version to MANIFEST atomically.
// Caller holds s.mu; install phases are serialized on installMu, so
// manifest writes never reorder.
func (s *Store) persistManifestLocked() error {
	root := manifestRoot{
		NextFileNum:   s.nextFileNum.Load(),
		NextRunID:     s.nextRunID,
		LastTs:        s.lastTs.Load(),
		Levels:        make([][]manifestRun, len(s.levels)),
		FlushedWALSeq: s.flushedWALSeq,
	}
	for i, runs := range s.levels {
		for _, r := range runs {
			mr := manifestRun{ID: r.id, Nbytes: r.bytes}
			for _, th := range r.tables {
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
			root.Levels[i] = append(root.Levels[i], mr)
		}
	}
	data, err := json.Marshal(root)
	if err != nil {
		return fmt.Errorf("lsm: manifest marshal: %w", err)
	}
	var werr error
	s.ocall(func() {
		var f vfs.File
		f, werr = s.fs.Create(manifestTmp)
		if werr != nil {
			return
		}
		if _, werr = f.Append(data); werr != nil {
			return
		}
		if werr = f.Sync(); werr != nil {
			return
		}
		if werr = f.Close(); werr != nil {
			return
		}
		werr = s.fs.Rename(manifestTmp, manifestName)
	})
	if werr != nil {
		return fmt.Errorf("lsm: manifest write: %w", werr)
	}
	s.manifestUpdates.Add(1)
	return nil
}

// liveWALFiles returns the frozen logs (sequence order) followed by the
// active log name, skipping files that do not exist.
func (s *Store) liveWALFiles() []string {
	names := append([]string(nil), s.frozenWALs...)
	if s.fs.Exists(walName) {
		names = append(names, walName)
	}
	return names
}

// recover loads the manifest (if any) and replays the WAL files (if any).
func (s *Store) recover() error {
	if s.fs.Exists(manifestName) {
		if err := s.recoverManifest(); err != nil {
			return err
		}
	}
	// Discover frozen logs left by a crash mid-flush: their flush never
	// installed, so their records (like the active log's) belong in the
	// memtable. They stay on disk until the next successful flush install
	// deletes them.
	frozenNames, err := s.fs.List(frozenWALPrefix)
	if err != nil {
		return fmt.Errorf("lsm: wal list: %w", err)
	}
	type seqName struct {
		seq  uint64
		name string
	}
	var ordered []seqName
	for _, name := range frozenNames {
		if seq, ok := frozenWALSeq(name); ok {
			if seq >= s.nextWALSeq {
				s.nextWALSeq = seq + 1
			}
			if seq < s.flushedWALSeq {
				// Flushed into a run the manifest already lists: a crash
				// hit between the manifest install and this log's
				// deletion. Replaying it would double-apply its records;
				// finish the interrupted deletion instead.
				s.ocall(func() { _ = s.fs.Remove(name) })
				continue
			}
			ordered = append(ordered, seqName{seq, name})
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	for _, sn := range ordered {
		s.frozenWALs = append(s.frozenWALs, sn.name)
	}

	// Replay every live log in order into the memtable, chaining the digest
	// across files. Only complete commit groups are replayed; a torn tail is
	// legal only on the final (active) log — the crash signature — and is
	// truncated away so appends resume cleanly. A tear anywhere else is
	// tampering.
	files := s.liveWALFiles()
	dig := hashutil.Zero
	for i, name := range files {
		var f vfs.File
		var oerr error
		s.ocall(func() { f, oerr = s.fs.Open(name) })
		if oerr != nil {
			return fmt.Errorf("lsm: wal open %s: %w", name, oerr)
		}
		info, err := wal.ReplayFrom(f, dig, func(rec record.Record) error {
			s.mem.Put(rec)
			if rec.Ts > s.lastTs.Load() {
				s.lastTs.Store(rec.Ts)
			}
			s.replayedRecords++
			return nil
		})
		if err != nil {
			f.Close()
			return fmt.Errorf("lsm: wal replay %s: %w", name, err)
		}
		if info.CommittedSize < f.Size() {
			if i != len(files)-1 || name != walName {
				f.Close()
				return fmt.Errorf("lsm: frozen wal %s torn (%d records) — not a crash artifact", name, info.TornRecords)
			}
			s.walTornRecords = info.TornRecords
			var terr error
			s.ocall(func() {
				if terr = f.Truncate(info.CommittedSize); terr == nil {
					terr = f.Sync()
				}
			})
			if terr != nil {
				f.Close()
				return fmt.Errorf("lsm: wal tail truncate: %w", terr)
			}
		}
		dig = info.Digest
		f.Close()
	}
	s.walReplayDigest = dig
	return nil
}

// recoverManifest rebuilds the level structure from the MANIFEST file.
func (s *Store) recoverManifest() error {
	var data []byte
	var rerr error
	s.ocall(func() {
		f, err := s.fs.Open(manifestName)
		if err != nil {
			rerr = err
			return
		}
		defer f.Close()
		data = make([]byte, f.Size())
		if _, err := f.ReadAt(data, 0); err != nil && len(data) > 0 {
			rerr = err
		}
	})
	if rerr != nil {
		return fmt.Errorf("lsm: manifest read: %w", rerr)
	}
	var root manifestRoot
	if err := json.Unmarshal(data, &root); err != nil {
		return fmt.Errorf("%w: %v", ErrManifestParse, err)
	}
	s.nextFileNum.Store(root.NextFileNum)
	s.nextRunID = root.NextRunID
	s.lastTs.Store(root.LastTs)
	s.flushedWALSeq = root.FlushedWALSeq
	if len(root.Levels) > len(s.levels) {
		s.levels = make([][]*run, len(root.Levels))
		s.levelBytesGauge = make([]atomic.Int64, len(root.Levels))
	}
	for lvl, runs := range root.Levels {
		for _, mr := range runs {
			r := &run{id: mr.ID}
			r.refs.Store(1) // the version reference
			for _, mt := range mr.Files {
				th, err := s.openTable(mt.FileNum)
				if err != nil {
					return err
				}
				th.meta.Smallest = mt.Smallest
				th.meta.SmallestTs = mt.SmallestTs
				th.meta.Largest = mt.Largest
				th.meta.LargestTs = mt.LargestTs
				th.meta.NumEntries = mt.NumEntries
				th.meta.NumBlocks = mt.NumBlocks
				th.meta.Size = mt.Size
				r.tables = append(r.tables, th)
				r.bytes += mt.Size
				r.entries += mt.NumEntries
			}
			s.levels[lvl] = append(s.levels[lvl], r)
		}
	}
	return nil
}

// openWAL creates/continues the active WAL writer.
func (s *Store) openWAL() error {
	var f vfs.File
	var err error
	s.ocall(func() {
		if s.fs.Exists(walName) {
			f, err = s.fs.Open(walName)
		} else {
			f, err = s.fs.Create(walName)
		}
	})
	if err != nil {
		return fmt.Errorf("lsm: wal create: %w", err)
	}
	s.walW = wal.NewWriter(f)
	if s.replayedRecords > 0 {
		s.walW = wal.ResumeWriter(f, s.walReplayDigest)
	}
	return nil
}

// freezeLocked hands the active memtable to the maintenance scheduler:
// the active WAL is rotated to a frozen-numbered file (so the frozen
// table's durability is pinned to a closed log that survives until the
// flush installs), the memtable pointer is swapped, and writes continue
// into a fresh table immediately. O(1) plus one rename+create — no level
// rewrite happens here. Caller holds commitMu and s.mu; s.frozen is nil.
func (s *Store) freezeLocked() error {
	if s.mem.Count() == 0 {
		return nil
	}
	if s.frozen != nil {
		panic("lsm: freeze with a frozen memtable outstanding")
	}
	name := frozenWALName(s.nextWALSeq)
	var err error
	s.ocall(func() {
		if s.walW != nil {
			s.walW.Close()
			s.walW = nil
		}
		if err = s.fs.Rename(walName, name); err != nil {
			return
		}
		var f vfs.File
		if f, err = s.fs.Create(walName); err != nil {
			return
		}
		s.walW = wal.NewWriter(f)
	})
	if err != nil {
		// The writer may be gone: fail stop, commits surface bgErr.
		err = fmt.Errorf("lsm: wal rotate: %w", err)
		s.setBgErrLocked(err)
		return err
	}
	s.nextWALSeq++
	s.frozenWALs = append(s.frozenWALs, name)
	s.frozen = s.mem
	s.frozen.Freeze()
	s.mem = memtable.New(s.enclave)
	s.listener.OnMemtableFrozen()
	s.maint.note(func() { s.maint.frozen++ })
	return nil
}

// setBgErrLocked records the first background failure and wakes stalled
// writers and settle waiters so they observe it. Caller holds s.mu.
func (s *Store) setBgErrLocked(err error) {
	if s.bgErr == nil && err != nil {
		s.bgErr = err
		s.opts.Obs.Event(obs.EventFailStop, "background failure (fail-stop): %v", err)
		s.maint.note(func() { s.maint.err = err })
	}
}

// setWALErr records the first WAL fsync failure (sticky fail-stop; see
// walErr).
func (s *Store) setWALErr(err error) {
	s.mu.Lock()
	if s.walErr == nil && err != nil {
		s.walErr = err
		s.opts.Obs.Event(obs.EventWALError, "wal fsync failed (sticky fail-stop): %v", err)
	}
	s.mu.Unlock()
}

// walErrLocked composes the sticky typed failure for a new commit attempt.
// Caller holds s.mu (read or write).
func (s *Store) walErrLocked() error {
	if s.walErr == nil {
		return nil
	}
	return fmt.Errorf("%w (reopen to recover): %w", ErrWALSyncFailed, s.walErr)
}

// WALReplayDigest returns the digest chain recomputed during recovery and
// the number of replayed records; the authentication layer compares it with
// its sealed trusted digest.
func (s *Store) WALReplayDigest() (hashutil.Hash, int) {
	return s.walReplayDigest, s.replayedRecords
}

// WALTornRecords reports how many records recovery dropped because their
// commit group never completed (a crash — or a truncating host — cut the
// log inside the group). The records were never acknowledged durable as a
// group, so dropping them is the correct crash semantics; a caller that
// demands clean recovery treats any torn tail as suspect.
func (s *Store) WALTornRecords() int {
	return s.walTornRecords
}

// VerifyWALPrefix re-reads the live WAL files (frozen logs in order, then
// the active log) and checks that trusted is a prefix of the concatenated
// digest chain, returning how many records follow that prefix. An error
// means the log was tampered with (the trusted digest never occurs on the
// chain). A zero trusted digest matches the empty prefix.
func (s *Store) VerifyWALPrefix(trusted hashutil.Hash) (int, error) {
	s.mu.RLock()
	files := s.liveWALFiles()
	s.mu.RUnlock()
	if len(files) == 0 {
		if trusted.IsZero() {
			return 0, nil
		}
		return 0, fmt.Errorf("lsm: WAL missing but trusted digest is non-zero")
	}
	found := trusted.IsZero()
	extra := 0
	dig := hashutil.Zero
	for _, name := range files {
		var f vfs.File
		var oerr error
		s.ocall(func() { f, oerr = s.fs.Open(name) })
		if oerr != nil {
			return 0, fmt.Errorf("lsm: wal open %s: %w", name, oerr)
		}
		_, err := wal.Replay(f, func(rec record.Record) error {
			dig = hashutil.WALLink(dig, byte(rec.Kind), rec.Key, rec.Ts, rec.Value)
			if found {
				extra++
			} else if dig == trusted {
				found = true
			}
			return nil
		})
		f.Close()
		if err != nil {
			return 0, err
		}
	}
	if !found {
		return 0, fmt.Errorf("lsm: trusted WAL digest not found on chain (log tampered)")
	}
	return extra, nil
}

// EnsureTs raises the timestamp counter to at least minTs (recovery: the
// sealed trusted state may record a later timestamp than the untrusted
// manifest; bulk load: the loaded records' timestamps are spent).
func (s *Store) EnsureTs(minTs uint64) {
	for {
		cur := s.lastTs.Load()
		if cur >= minTs {
			break
		}
		if s.lastTs.CompareAndSwap(cur, minTs) {
			break
		}
	}
	for {
		cur := s.appliedTs.Load()
		if cur >= minTs {
			return
		}
		if s.appliedTs.CompareAndSwap(cur, minTs) {
			return
		}
	}
}

// openTable opens a table file and parses its metadata.
func (s *Store) openTable(fileNum uint64) (*tableHandle, error) {
	name := tableName(fileNum)
	var f vfs.File
	var err error
	s.ocall(func() { f, err = s.fs.Open(name) })
	if err != nil {
		return nil, fmt.Errorf("lsm: open table %s: %w", name, err)
	}
	of := &openFile{file: f}
	if s.opts.MmapReads {
		// One OCall to establish the mapping; reads are then direct.
		s.ocall(func() { of.view = f.Bytes() })
	}
	s.fileMu.Lock()
	s.files[fileNum] = of
	s.fileMu.Unlock()

	t, err := sstable.Open(f, fileNum, &storeSource{s: s})
	if err != nil {
		return nil, err
	}
	// Index + filters live inside the enclave: account their footprint.
	of.metaRegion = s.enclave.Alloc(t.MetadataBytes())
	return &tableHandle{meta: sstable.Meta{FileNum: fileNum}, table: t, name: name}, nil
}

// ---------------------------------------------------------------------------
// Run reference counting

// retainRunLocked takes an extra reference on r (caller holds s.mu, read or
// write: the run is reachable, so its version reference keeps refs ≥ 1 and
// the increment cannot resurrect a dying run).
func (s *Store) retainRunLocked(r *run) {
	r.refs.Add(1)
	s.pinnedRuns.Add(1)
}

// releaseRun drops one reference; at zero the run's files are deleted. The
// zero re-check under the write lock orders the deletion after every pin
// taken under mu.RLock while the run was still reachable: such a reader
// either incremented before the check (which then sees refs > 0 and leaves
// the run alone) or can no longer find the run at all.
func (s *Store) releaseRun(r *run) {
	s.pinnedRuns.Add(-1)
	if r.refs.Add(-1) > 0 {
		return
	}
	s.mu.Lock()
	alive := r.refs.Load() > 0
	s.mu.Unlock()
	if !alive {
		s.removeFiles(r.fileNums())
	}
}

// retireRunsLocked accounts for runs the install just removed from the
// version: from here until it is dropped, their version reference counts
// in pinnedRuns, keeping the gauge's invariant (refs beyond live version
// membership) intact. Readers that pinned the runs keep them, and their
// files, through their own references. Caller holds s.mu and must drop the
// version reference — releaseRunRefs — after releasing it.
func (s *Store) retireRunsLocked(runs []*run) {
	s.pinnedRuns.Add(int64(len(runs)))
}

// releaseRunRefs drops n references from each run (deleting files at
// zero). A successful install drops TWO per input run — the retired
// version reference plus the job's merge pin — in one explicit call;
// abort paths drop only the job pin. Must be called without s.mu.
func (s *Store) releaseRunRefs(runs []*run, n int) {
	for i := 0; i < n; i++ {
		for _, r := range runs {
			s.releaseRun(r)
		}
	}
}

// Flush forces all buffered writes to disk and waits for the resulting
// level maintenance to settle: the active memtable is frozen (behind any
// predecessor still flushing) and the call returns once it is on disk and
// no level is over its size target. The flush and the compactions are the
// scheduler's; a failure of either is the sticky background error.
func (s *Store) Flush() error { return s.freezeAndSettle(true) }

// ---------------------------------------------------------------------------
// Reads (raw, unverified — the unsecured baseline path; the eLSM layer
// drives the per-run lookup API of Snapshot instead)

// Get returns the newest record of key with Ts ≤ tsq. Tombstones are
// returned as-is (callers interpret Kind). The boolean reports whether any
// version was found.
func (s *Store) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return record.Record{}, false, ErrClosed
	}
	if rec, ok := s.mem.Get(key, tsq); ok {
		return rec, true, nil
	}
	if s.frozen != nil {
		if rec, ok := s.frozen.Get(key, tsq); ok {
			return rec, true, nil
		}
	}
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for _, r := range s.levels[lvl] {
			rec, ok, err := runGet(r, key, tsq)
			if err != nil {
				return record.Record{}, false, err
			}
			if ok {
				return rec, true, nil
			}
		}
	}
	return record.Record{}, false, nil
}

// runGet searches one immutable run (lock-free for reachable runs).
func runGet(r *run, key []byte, tsq uint64) (record.Record, bool, error) {
	ti := seekTable(r.tables, key, tsq)
	if ti >= len(r.tables) {
		return record.Record{}, false, nil
	}
	return r.tables[ti].table.Get(key, tsq)
}

// seekTable returns the index of the first table whose largest entry is
// ≥ (key, ts).
func seekTable(tables []*tableHandle, key []byte, ts uint64) int {
	lo, hi := 0, len(tables)
	for lo < hi {
		mid := (lo + hi) / 2
		m := tables[mid].meta
		if record.Compare(m.Largest, m.LargestTs, key, ts) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ---------------------------------------------------------------------------
// Introspection

// Runs returns references to all on-disk runs in read order (newest data
// first): level 1 runs newest-first, then level 2, and so on.
func (s *Store) Runs() []RunRef {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []RunRef
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for idx, r := range s.levels[lvl] {
			out = append(out, RunRef{ID: r.id, Level: lvl, Index: idx})
		}
	}
	return out
}

// LastTs returns the most recently assigned timestamp. With the pipelined
// committer this can run ahead of durable, visible state — see AppliedTs.
func (s *Store) LastTs() uint64 { return s.lastTs.Load() }

// AppliedTs returns the last timestamp durably applied to the memtable:
// every record at or below it is fsynced and readable, every record above
// it is still in the commit pipeline.
func (s *Store) AppliedTs() uint64 { return s.appliedTs.Load() }

// Stats returns engine event counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	torn := s.walTornRecords
	s.mu.RUnlock()
	pinned := s.pinnedRuns.Load()
	if pinned < 0 {
		pinned = 0
	}
	snaps := s.snapshotsOpen.Load()
	if snaps < 0 {
		snaps = 0
	}
	async := s.asyncInFlight.Load()
	if async < 0 {
		async = 0
	}
	debtByLevel := make([]uint64, len(s.levelBytesGauge))
	var debtTotal uint64
	for lvl := 1; lvl < len(debtByLevel); lvl++ {
		d := s.compactionDebt(lvl)
		debtByLevel[lvl] = uint64(d)
		debtTotal += uint64(d)
	}
	s.maint.mu.Lock()
	running := s.maint.inflight
	s.maint.mu.Unlock()
	return Stats{
		Flushes:                s.flushes.Load(),
		Compactions:            s.compactions.Load(),
		BytesFlushed:           s.bytesFlushed.Load(),
		BytesCompacted:         s.bytesCompacted.Load(),
		RecordsDropped:         s.recordsDropped.Load(),
		ManifestUpdates:        s.manifestUpdates.Load(),
		WALSyncs:               s.walSyncs.Load(),
		GroupCommits:           s.groupCommits.Load(),
		GroupedRecords:         s.groupedRecords.Load(),
		WALTornRecords:         uint64(torn),
		FlushStallNanos:        uint64(s.flushStallNanos.Load()),
		CompactionStallNanos:   uint64(s.compactionStallNanos.Load()),
		BackgroundCompactions:  s.backgroundCompactions.Load(),
		CompactionDebtBytes:    debtTotal,
		CompactionDebtByLevel:  debtByLevel,
		ParallelCompactions:    uint64(running),
		CompactionWorkersBusy:  uint64(s.workers.Busy()),
		PinnedRuns:             uint64(pinned),
		SnapshotsOpen:          uint64(snaps),
		AsyncCommitsInFlight:   uint64(async),
		GroupCommitWindowNanos: uint64(s.resolveCommitWindow().Nanoseconds()),
		FsyncEWMANanos:         uint64(s.fsyncEWMANanos.Load()),
	}
}

// DiskBytes returns the total bytes across all on-disk runs.
func (s *Store) DiskBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for lvl := 1; lvl < len(s.levels); lvl++ {
		for _, r := range s.levels[lvl] {
			total += r.bytes
		}
	}
	return total
}

// WaitMaintenance blocks until the maintenance the store has committed to
// is done — a barrier for tests and tooling that assert on settled state.
//
// A commit that fills the memtable acknowledges its caller before the
// append worker has consumed the wantFreeze nudge, so the call consumes
// that pending decision first: ensureMemtableRoom is exactly the worker's
// freeze step and a no-op when the memtable isn't full.
func (s *Store) WaitMaintenance() error { return s.freezeAndSettle(false) }

// Close drains in-flight maintenance (a background flush or compaction
// runs to completion so the manifest, run files and trusted digests stay
// consistent) and the commit pipeline (appended groups are fsynced, applied
// and acknowledged; commits still queued fail with ErrClosed), then
// releases resources. Buffered writes are NOT flushed — callers flush
// explicitly if desired; the WAL preserves them for recovery.
func (s *Store) Close() error {
	s.stopMaintenance()
	s.stopCommitter()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.walW != nil {
		s.walW.Close()
	}
	if s.frozen != nil {
		s.frozen.Release()
		s.frozen = nil
	}
	s.mem.Release()
	return nil
}
