package lsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"elsm/internal/blockcache"
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
// active log — the listener counts positions across the concatenation).
const (
	walName         = "wal.log"
	frozenWALPrefix = "wal-frozen-"
	manifestName    = "MANIFEST"
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
	// ErrRelabelRefused is what a listener's Verify wraps to refuse a
	// relabel (CompactionInfo.Relabel) it cannot seal: the engine then merges
	// the run instead, under a new ID.
	ErrRelabelRefused = errors.New("lsm: relabel refused")
	// ErrWALSyncFailed is the sticky fail-stop after a WAL fsync (or
	// append) error: the group whose fsync failed AND every commit attempted
	// afterwards fail with it, because the kernel may have dropped any dirty
	// log page once fsync reported an error, and a failed append may have
	// left a torn frame. Reopening the store recovers — replay truncates the
	// log back to a verified prefix.
	ErrWALSyncFailed = errors.New("lsm: wal sync failed")
)

// tableHandle pairs an open SSTable with its file. Everything the engine
// knows of a table it reads from the table: largest and largestTs are its
// index's last entry (sstable.Table.Largest), aliased here so that
// seekTable, on every Get, reads them with no pointer chase.
type tableHandle struct {
	largest   []byte
	largestTs uint64
	fileNum   uint64
	table     *sstable.Table
}

// run is one immutable sorted run of tables (non-overlapping, key-ordered).
// refs counts reasons the run's files must stay on disk: every live version
// listing it holds one reference (readers pin versions, not runs), a job
// merging it as input holds one, and the job that built it holds one until
// its install ends. Files are deleted only when the count reaches zero, so
// an in-flight read never races a compaction deleting its inputs. A run at
// zero is never referenced again: every new reference is taken while a live
// version or the job still holds one. trust is the listener's value for the
// run (RunRef.Trust); the engine never reads it. A relabel moves the run to
// the next level as it is, so the versions before and after it list the same
// run, each with its own RunRef.Trust.
//
// keep is the KeepVersions a bottom-most job (CompactionInfo.BottomMost)
// built the run under, 0 if none built it bottom-most under a bound: under
// the same KeepVersions, a bottom-most merge of the run alone drops nothing.
// The version carries it, so a run recovery opens has it too.
type run struct {
	id     uint64
	tables []*tableHandle
	bytes  int64
	refs   atomic.Int32
	trust  any
	keep   int
}

// add appends th to the run, and its size to the run's.
func (r *run) add(th *tableHandle) {
	r.tables = append(r.tables, th)
	r.bytes += th.table.Size()
}

// appendFileNums appends the run's table file numbers to nums.
func (r *run) appendFileNums(nums []uint64) []uint64 {
	for _, th := range r.tables {
		nums = append(nums, th.fileNum)
	}
	return nums
}

// openFile tracks an open untrusted file and its optional mmap views.
type openFile struct {
	file   vfs.File
	view   []byte // mmap read path view (MmapReads)
	pinned []byte // compaction-time bulk-loaded view (§5.3 step m1)
	// metaRegion charges the table's index and filters to the enclave where
	// the enclave holds them: only when it opens the table's blocks itself
	// (Transform, eLSM-P1). Elsewhere the index is the host's, read by the
	// untrusted seek (lookupRun), and a lying one is caught by the proofs.
	metaRegion *sgx.Region
}

// RunRef identifies one run in read order (newest data first).
type RunRef struct {
	ID    uint64
	Level int
	Index int // position within the level (0 = newest)
	// Trust is the listener's value for the run, opaque to the engine: what
	// the Job.Installed that installed it returned, or what SetRunTrust
	// attached to a run recovery opened; nil until one of them sets it. A
	// version carries it for every run it lists, so a snapshot's Runs give
	// the runs and their values in one pin.
	Trust any
}

// Stats counts engine-level events.
type Stats struct {
	Flushes uint64
	// Compactions and BytesCompacted count the level compactions that
	// rewrote their inputs, and the bytes they wrote.
	Compactions    uint64
	BytesFlushed   uint64
	BytesCompacted uint64
	// Moves and BytesMoved count the level compactions that moved one run
	// down a level by relabel (CompactionInfo.Relabel), writing no table, and
	// the bytes of the runs they moved.
	Moves           uint64
	BytesMoved      uint64
	RecordsDropped  uint64
	ManifestUpdates uint64
	// DiskBytes is the total size of the on-disk runs (Store.DiskBytes).
	DiskBytes uint64
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
	// CompactionStallNanos is the portion of those stalls during which no
	// flush was running and level compactions kept it from starting: one
	// owned L1, or they held every worker token (compaction debt delaying the
	// flush the writer is waiting on).
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
	// The read buffer's block lookups that hit and missed, and the misses
	// read into a frame an evicted block left free (zero without a cache).
	BlockCacheHits           uint64
	BlockCacheMisses         uint64
	BlockCacheFramesRecycled uint64
}

// Store is the LSM engine. Reads may run concurrently; writes flow through
// the group-commit pipeline (commit.go): one commit worker coalesces
// concurrent commits into groups and appends, fsyncs and applies each in
// turn, while the next group queues behind its fsync. Flush and compaction run on a pool of maintenance workers
// (scheduler.go) scheduled by compaction debt over disjoint level pairs:
// the commit path only freezes the full memtable (an O(1) pointer swap plus
// a WAL rotation) and the scheduler discovers the flush, so writers never
// wait on a multi-megabyte merge unless flushes fall behind the write rate
// (Stats.FlushStallNanos counts exactly that).
//
// Lock order: commitMu > installMu > mu > gc.mu / maint.mu / versionMu >
// the listener's own locks. commitMu serializes WAL epochs — a commit group
// from append through fsync and apply, a freeze's WAL rotation, close — so
// holding it means no group is in flight. It spans the fsync, which is safe
// because readers (who pin the published version, no lock) and maintenance
// jobs never take it and so never wait on storage. The commit worker holds mu only to check the store is
// writable and reserve a group's timestamps; it hashes, appends and applies
// under commitMu alone (see appendGroup). installMu serializes the install
// phase (Job.Verify, the version's save, Job.Installed) across concurrent
// maintenance jobs. Maintenance jobs take mu only for the
// snapshot and install phases of a rewrite, never commitMu.
type Store struct {
	opts     Options
	fs       vfs.FS
	enclave  *sgx.Enclave
	listener EventListener

	commitMu sync.Mutex // guards walW append/sync/rotate epochs

	// installMu serializes phase 3 of maintenance jobs end to end — from
	// the listener's Job.Verify through the version's save, Job.Installed
	// and Job.Committed (or Job.Abort). With parallel phase-2 workers this
	// is what keeps "one version install in flight": saved versions never
	// reorder, and each is saved right after its own job's Verify.
	// Acquired BEFORE s.mu.
	installMu sync.Mutex

	mu     sync.RWMutex    // guards mem (swapped under commitMu as well), frozen, levels, closed, bgErr
	mem    *memtable.Table // active write buffer; the commit worker is its one writer
	frozen *memtable.Table // immutable predecessor being flushed (nil: none)
	walW   *wal.Writer
	levels [][]*run // levels[0] unused; levels[i] newest-run-first

	// frozenWALs are rotated log files carrying the frozen memtable's (and,
	// after recovery, any predecessor's) records; deleted at flush install.
	frozenWALs []string
	nextWALSeq uint64

	// flushedWALSeq is the version's WAL watermark: every frozen log with
	// a sequence below it has been flushed into an installed run. Recovery
	// must IGNORE (and delete) such logs — a crash between the version's
	// save and the frozen-log deletion leaves them on disk, and replaying
	// them would double-apply records the version already accounts for.
	flushedWALSeq uint64

	// versionStore is where the version is loaded from and saved to: the
	// listener, if it is a VersionStore, the MANIFEST file otherwise.
	versionStore VersionStore

	// bgErr is the first background maintenance failure; the store fails
	// stop — subsequent commits and maintenance return it.
	bgErr error

	// walErr is the first WAL append or fsync failure and is STICKY: once
	// one fails, the durability of everything past the durable frontier is
	// unknown (the kernel may have dropped dirty pages), so every later
	// commit attempt fails with ErrWALSyncFailed until the store is
	// reopened and recovery re-establishes a verified log prefix.
	walErr error

	gc    committer   // group-commit queue and worker (commit.go)
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

	// current is the published read version (version.go), replaced under mu
	// whenever levels, memtables or closed change; readers pin it without
	// taking mu. versions lists the live ones, current included, for the
	// PinnedRuns gauge.
	current   atomic.Pointer[version]
	versionMu sync.Mutex
	versions  []*version

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
	// committer assigns timestamps (lastTs) at append but makes records
	// visible only after their group's fsync, so reads and
	// snapshots anchor to appliedTs — every record ≤ appliedTs is visible,
	// every record > appliedTs is not yet. The commit worker stores it after
	// the group's last memtable insert, so a reader that loads it sees every
	// record at or below it.
	appliedTs atomic.Uint64
	closed    bool

	walTornRecords int

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
	moves                 atomic.Uint64
	bytesMoved            atomic.Uint64
	recordsDropped        atomic.Uint64
	manifestUpdates       atomic.Uint64
	flushStallNanos       atomic.Int64
	compactionStallNanos  atomic.Int64
	backgroundCompactions atomic.Uint64
	// jobPins counts the input-run references of the jobs in flight.
	jobPins atomic.Int64
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
	s.versionStore = manifestFile{s}
	if vs, ok := opts.Listener.(VersionStore); ok {
		s.versionStore = vs
	}
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
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	s.startMaintenance()
	s.startCommitter()
	return s, nil
}

// ocall runs fn in the untrusted world, charging world-switch cost.
func (s *Store) ocall(fn func()) { s.enclave.OCall(fn) }

// tableName formats an SSTable file name.
func tableName(fileNum uint64) string { return fmt.Sprintf("%06d.sst", fileNum) }

// ---------------------------------------------------------------------------
// Version

// The version holds only what nothing else does: each level's runs in
// order, each run's ID, its tables' file numbers and the KeepVersions it was
// built bottom-most under (run.keep), the timestamp floor and the WAL
// watermark. A table's last key and size are read from the table
// (adoptTable), and the next file number and run ID are derived from the
// live runs at recovery, so no saved version states them. Fields a version
// of an earlier format carries besides these are ignored.
type manifestTable struct {
	FileNum uint64 `json:"file"`
}

type manifestRun struct {
	ID    uint64          `json:"id"`
	Files []manifestTable `json:"files"`
	Keep  int             `json:"keep,omitempty"`
}

type manifestRoot struct {
	LastTs uint64          `json:"lastTs"`
	Levels [][]manifestRun `json:"levels"`
	// FlushedWALSeq marks frozen logs below this sequence as flushed into
	// the runs this version lists; recovery discards them instead of
	// replaying (crash window between the version's save and log deletion).
	FlushedWALSeq uint64 `json:"flushedWALSeq,omitempty"`
}

// encodeManifest serializes levels, each a level's runs in order, as a
// version.
func encodeManifest(levels [][]*run, lastTs, flushedWALSeq uint64) ([]byte, error) {
	root := manifestRoot{LastTs: lastTs, Levels: make([][]manifestRun, len(levels)), FlushedWALSeq: flushedWALSeq}
	for i, runs := range levels {
		for _, r := range runs {
			mr := manifestRun{ID: r.id, Files: make([]manifestTable, len(r.tables)), Keep: r.keep}
			for j, th := range r.tables {
				mr.Files[j].FileNum = th.fileNum
			}
			root.Levels[i] = append(root.Levels[i], mr)
		}
	}
	return json.Marshal(root)
}

// VersionStore keeps the engine's version: what Open recovers to, and what
// every install makes durable. A listener that is one keeps the version
// itself (the authentication layer seals it with the trusted state); a
// store whose listener is not keeps it in a MANIFEST file, rewritten whole
// at every install (manifestFile).
type VersionStore interface {
	// LoadVersion returns the version Open recovers to, nil for a store
	// that never saved one. It is called once, before Open replays the log.
	LoadVersion() ([]byte, error)
	// SaveVersion makes version durable as the install of job, whose
	// Verify has passed; it is the install's one commit point. It is called
	// under the engine lock and the install lock, so versions are saved one
	// at a time and in order. An error fails the job and undoes the
	// install; a crash recovers the version saved last.
	SaveVersion(job Job, version []byte) error
}

// manifestFile is the VersionStore of a store whose listener keeps no
// version: the version is the MANIFEST file.
type manifestFile struct{ s *Store }

// LoadVersion implements VersionStore.
func (m manifestFile) LoadVersion() (data []byte, err error) {
	if !m.s.fs.Exists(manifestName) {
		return nil, nil
	}
	m.s.ocall(func() { data, err = vfs.ReadFile(m.s.fs, manifestName) })
	if err != nil {
		return nil, fmt.Errorf("lsm: manifest read: %w", err)
	}
	return data, nil
}

// SaveVersion implements VersionStore.
func (m manifestFile) SaveVersion(_ Job, version []byte) (err error) {
	m.s.ocall(func() { err = vfs.WriteFile(m.s.fs, manifestName, version) })
	if err != nil {
		return fmt.Errorf("lsm: manifest write: %w", err)
	}
	return nil
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

// saveVersionLocked saves the current version as job's install. Caller
// holds s.mu; install phases are serialized on installMu, so saved versions
// never reorder.
func (s *Store) saveVersionLocked(job Job) error {
	data, err := encodeManifest(s.levels, s.lastTs.Load(), s.flushedWALSeq)
	if err != nil {
		return fmt.Errorf("lsm: version marshal: %w", err)
	}
	if err := s.versionStore.SaveVersion(job, data); err != nil {
		return err
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

// recover loads the version (if any) and replays the WAL files (if any).
func (s *Store) recover() error {
	data, err := s.versionStore.LoadVersion()
	if err != nil {
		return err
	}
	if data != nil {
		if err := s.loadVersion(data); err != nil {
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
				// Flushed into a run the version already lists: a crash
				// hit between the version's save and this log's
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

	// Replay every live log in order into the memtable, handing each group
	// and its tag to the listener, which counts positions across the files,
	// before the group is applied: this one pass is all the reading of the
	// log recovery does. Only complete commit groups are replayed; a torn tail
	// is legal only on the final (active) log — the crash signature — and is
	// truncated away so appends resume cleanly. A tear anywhere else is
	// tampering.
	files := s.liveWALFiles()
	for i, name := range files {
		var data []byte
		var rerr error
		s.ocall(func() { data, rerr = vfs.ReadFile(s.fs, name) })
		if rerr != nil {
			return fmt.Errorf("lsm: wal read %s: %w", name, rerr)
		}
		info, err := wal.Replay(data, func(group []record.Record, tag *wal.Tag) error {
			s.listener.OnGroupAppended(group, tag, true)
			for j := range group {
				s.mem.Put(group[j])
			}
			if ts := group[len(group)-1].Ts; ts > s.lastTs.Load() {
				s.lastTs.Store(ts)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("lsm: wal replay %s: %w", name, err)
		}
		if info.CommittedSize < int64(len(data)) {
			if i != len(files)-1 || name != walName {
				return fmt.Errorf("lsm: frozen wal %s torn (%d records) — not a crash artifact: %w", name, info.TornRecords, wal.ErrCorrupt)
			}
			s.walTornRecords = info.TornRecords
			if err := s.truncateWAL(info.CommittedSize); err != nil {
				return fmt.Errorf("lsm: wal tail truncate: %w", err)
			}
		}
	}
	return nil
}

// truncateWAL cuts the active log back to size bytes, durably.
func (s *Store) truncateWAL(size int64) error {
	var err error
	s.ocall(func() {
		var f vfs.File
		if f, err = s.fs.Open(walName); err != nil {
			return
		}
		defer f.Close()
		if err = f.Truncate(size); err == nil {
			err = f.Sync()
		}
	})
	return err
}

// loadVersion rebuilds the level structure from a saved version.
func (s *Store) loadVersion(data []byte) error {
	var root manifestRoot
	if err := json.Unmarshal(data, &root); err != nil {
		return fmt.Errorf("%w: %v", ErrManifestParse, err)
	}
	s.lastTs.Store(root.LastTs)
	s.flushedWALSeq = root.FlushedWALSeq
	// A log frozen from here on must sort above the watermark, or a crash
	// before its flush installs would leave it to the next recovery to
	// delete as flushed.
	s.nextWALSeq = max(s.nextWALSeq, root.FlushedWALSeq)
	if len(root.Levels) > len(s.levels) {
		s.levels = make([][]*run, len(root.Levels))
		s.levelBytesGauge = make([]atomic.Int64, len(root.Levels))
	}
	// A run or table listed twice would be two runs under one ID, or a file
	// deleted twice; the next run ID and file number are one above every
	// listed one, so the largest would wrap them to 0.
	runIDs, fileNums := map[uint64]bool{}, map[uint64]bool{}
	listedOnce := func(seen map[uint64]bool, n uint64) bool {
		once := !seen[n] && n < math.MaxUint64
		seen[n] = true
		return once
	}
	for lvl, runs := range root.Levels {
		if lvl == 0 && len(runs) > 0 {
			return fmt.Errorf("%w: runs at level 0", ErrManifestParse)
		}
		for _, mr := range runs {
			if !listedOnce(runIDs, mr.ID) {
				return fmt.Errorf("%w: run %d listed twice or out of range", ErrManifestParse, mr.ID)
			}
			r := &run{id: mr.ID, keep: mr.Keep} // Open's first version takes the reference
			for _, mt := range mr.Files {
				if !listedOnce(fileNums, mt.FileNum) {
					return fmt.Errorf("%w: table %d listed twice or out of range", ErrManifestParse, mt.FileNum)
				}
				th, err := s.openTable(mt.FileNum)
				if err != nil {
					return err
				}
				s.nextFileNum.Store(max(s.nextFileNum.Load(), mt.FileNum+1))
				r.add(th)
			}
			s.levels[lvl] = append(s.levels[lvl], r)
			s.nextRunID = max(s.nextRunID, r.id+1)
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
	// The new version lists every run the old one does, so dropping the old
	// one's store pin here, under mu, can delete no file.
	s.publishLocked().unpin()
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

// setWALErr records the first WAL append or fsync failure (sticky
// fail-stop; see walErr).
func (s *Store) setWALErr(err error) {
	s.mu.Lock()
	if s.walErr == nil && err != nil {
		s.walErr = err
		s.opts.Obs.Event(obs.EventWALError, "wal write failed (sticky fail-stop): %v", err)
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

// EnsureTs raises the timestamp counter to at least minTs (recovery: the
// sealed trusted state may record a later timestamp than the version;
// bulk load: the loaded records' timestamps are spent).
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

// openTable opens a table file the version lists.
func (s *Store) openTable(fileNum uint64) (*tableHandle, error) {
	name := tableName(fileNum)
	var f vfs.File
	var err error
	s.ocall(func() { f, err = s.fs.Open(name) })
	if err != nil {
		return nil, fmt.Errorf("lsm: open table %s: %w", name, err)
	}
	return s.adoptTable(fileNum, f)
}

// adoptTable registers f as table fileNum and parses its footer and index,
// which give the handle everything the engine knows of the table.
func (s *Store) adoptTable(fileNum uint64, f vfs.File) (*tableHandle, error) {
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
	if s.opts.Transform != nil {
		of.metaRegion = s.enclave.Alloc(t.MetadataBytes()) // see metaRegion
	}
	th := &tableHandle{fileNum: fileNum, table: t}
	th.largest, th.largestTs = t.Largest()
	return th, nil
}

// ---------------------------------------------------------------------------
// Run reference counting

// releaseRunRefs drops one reference from each run, deleting the files of
// those it leaves at zero in one removal. Must be called without s.mu.
func (s *Store) releaseRunRefs(runs []*run) {
	var dead []uint64
	for _, r := range runs {
		if r.refs.Add(-1) == 0 {
			dead = r.appendFileNums(dead)
		}
	}
	if len(dead) > 0 {
		s.removeFiles(dead)
	}
}

// Flush forces all buffered writes to disk and waits for the resulting
// level maintenance to settle: the active memtable is frozen (behind any
// predecessor still flushing) and the call returns once it is on disk and
// no level is over its size target. The flush and the compactions are the
// scheduler's; a failure of either is the sticky background error.
func (s *Store) Flush() error { return s.freezeAndSettle(true) }

// FlushMemtable freezes the active memtable and returns once its flush job
// has ended — its version saved and installed, Job.Committed included —
// without waiting for the compactions that leaves due.
func (s *Store) FlushMemtable() error {
	s.commitMu.Lock()
	err := s.ensureMemtableRoom(true)
	s.commitMu.Unlock()
	if err != nil {
		return err
	}
	return s.awaitFlushed(false)
}

// SetRunTrust sets the listener's value of every run the store lists to what
// trust returns for the run's ID and the bytes its first table stores as the
// Job.RunFilter (nil if none; the host's bytes, which trust must check before
// it relies on them), and publishes a version that carries the values: those
// of the runs recovery opened, which no Job.Installed returned.
func (s *Store) SetRunTrust(trust func(id uint64, runFilter []byte) any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, runs := range s.levels {
		for _, r := range runs {
			var rf []byte
			if len(r.tables) > 0 {
				rf = s.readRunFilter(r.tables[0])
			}
			r.trust = trust(r.id, rf)
		}
	}
	s.publishLocked().unpin() // it lists the runs the new one does: no file goes
}

// readRunFilter reads, in one OCall, the run filter th stores; nil if it
// stores none or the host fails the read.
func (s *Store) readRunFilter(th *tableHandle) []byte {
	off, n := th.table.RunFilterSpan()
	if n == 0 {
		return nil
	}
	s.fileMu.RLock()
	of := s.files[th.fileNum]
	s.fileMu.RUnlock()
	rf := make([]byte, n)
	var err error
	s.ocall(func() { _, err = of.file.ReadAt(rf, off) })
	if err != nil {
		return nil
	}
	return rf
}

// ---------------------------------------------------------------------------
// Reads (raw, unverified — the unsecured baseline path; the eLSM layer
// drives the per-run lookup API of Snapshot instead)

// Get returns the newest record of key with Ts ≤ tsq, read through an
// ephemeral snapshot (Snapshot.Get) on the stack. Tombstones are returned
// as-is (callers interpret Kind). The boolean reports whether any version
// was found.
func (s *Store) Get(key []byte, tsq uint64) (record.Record, bool, error) {
	var sn Snapshot
	s.AcquireSnapshotInto(&sn, false)
	defer sn.Release()
	if err := sn.Err(); err != nil {
		return record.Record{}, false, err
	}
	return sn.Get(key, tsq)
}

// seekTable returns the index of the first table whose largest entry is
// ≥ (key, ts).
func seekTable(tables []*tableHandle, key []byte, ts uint64) int {
	lo, hi := 0, len(tables)
	for lo < hi {
		mid := (lo + hi) / 2
		th := tables[mid]
		if record.Compare(th.largest, th.largestTs, key, ts) < 0 {
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
// first): level 1 runs newest-first, then level 2, and so on. It is
// introspection, so it leaves Trust nil: a reader takes the runs and their
// values from a snapshot.
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

// LastTs returns the most recently assigned timestamp. While a group is
// between append and fsync it runs ahead of durable, visible state — see
// AppliedTs.
func (s *Store) LastTs() uint64 { return s.lastTs.Load() }

// AppliedTs returns the last timestamp durably applied to the memtable:
// every record at or below it is fsynced and readable, every record above
// it is still in the commit worker's current group.
func (s *Store) AppliedTs() uint64 { return s.appliedTs.Load() }

// Stats returns engine event counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	torn := s.walTornRecords
	s.mu.RUnlock()
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
	var cache blockcache.Stats
	if s.opts.Cache != nil {
		cache = s.opts.Cache.Stats()
	}
	return Stats{
		Flushes:               s.flushes.Load(),
		Compactions:           s.compactions.Load(),
		BytesFlushed:          s.bytesFlushed.Load(),
		BytesCompacted:        s.bytesCompacted.Load(),
		Moves:                 s.moves.Load(),
		BytesMoved:            s.bytesMoved.Load(),
		RecordsDropped:        s.recordsDropped.Load(),
		ManifestUpdates:       s.manifestUpdates.Load(),
		DiskBytes:             uint64(s.DiskBytes()),
		WALSyncs:              s.walSyncs.Load(),
		GroupCommits:          s.groupCommits.Load(),
		GroupedRecords:        s.groupedRecords.Load(),
		WALTornRecords:        uint64(torn),
		FlushStallNanos:       uint64(s.flushStallNanos.Load()),
		CompactionStallNanos:  uint64(s.compactionStallNanos.Load()),
		BackgroundCompactions: s.backgroundCompactions.Load(),
		CompactionDebtBytes:   debtTotal,
		CompactionDebtByLevel: debtByLevel,
		ParallelCompactions:   uint64(running),
		CompactionWorkersBusy: uint64(s.workers.Busy()),
		PinnedRuns:            s.pinnedRunsGauge(),
		SnapshotsOpen:         uint64(snaps),
		AsyncCommitsInFlight:  uint64(async),

		BlockCacheHits:           cache.Hits,
		BlockCacheMisses:         cache.Misses,
		BlockCacheFramesRecycled: cache.Recycled,
	}
}

// BlockCache returns the read buffer, nil without one.
func (s *Store) BlockCache() *blockcache.Cache { return s.opts.Cache }

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
// commit worker freezes it; the call waits for the worker (commitMu) and
// then runs the same freeze step, a no-op once the memtable isn't full.
func (s *Store) WaitMaintenance() error { return s.freezeAndSettle(false) }

// Close drains in-flight maintenance (a background flush or compaction
// runs to completion so the version, run files and trusted digests stay
// consistent) and the commit worker (the group it is on is fsynced, applied
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
	// The closed version lists the same runs: no file goes with the old one.
	s.publishLocked().unpin()
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
