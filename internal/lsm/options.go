// Package lsm implements a log-structured merge-tree key-value store in the
// style of Google LevelDB / Facebook RocksDB (§2 of the paper): an
// in-enclave memtable (L0) backed by an untrusted write-ahead log,
// immutable sorted runs at levels L1..Lq stored as SSTable files in the
// untrusted world, lazy-leveled compaction (a flush adds a run to L1, each
// level above the deepest gathers about three runs, and only the deepest is
// merged in place), and a read path that goes through either a block cache
// ("read buffer") or mmap-style direct views of untrusted file memory.
//
// The engine knows nothing about Merkle trees. The eLSM authentication
// layer (internal/core) attaches purely through the EventListener callback
// surface — the Go rendering of RocksDB's EventListener/CompactionFilter
// hooks, with Figure 4's per-compaction callbacks (Filter(),
// OnTableFileCreated(), the input-root check before install) gathered on
// the Job handle BeginJob returns — which is the paper's headline
// "middleware without engine code change" claim (§5.5.3).
package lsm

import (
	"runtime"

	"elsm/internal/blockcache"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// Geometry is the engine's five sizes: when a memtable is full, how large a
// block and a table file grow, what each level holds and how many levels
// there are. A zero field takes its default. The byte-denominated defaults
// are the paper's LevelDB values scaled by 1/32; the block size is
// sstable.DefaultBlockSize, unscaled because record sizes are.
type Geometry struct {
	// MemtableSize triggers a flush when the write buffer exceeds it.
	MemtableSize int
	// BlockSize is the SSTable block payload target.
	BlockSize int
	// TableFileSize caps individual SSTable files.
	TableFileSize int
	// LevelBase is the L1 size target; level i targets
	// LevelBase × 10^(i-1).
	LevelBase int64
	// MaxLevels bounds the number of on-disk levels.
	MaxLevels int
}

// The geometry's defaults.
const (
	DefaultMemtableSize  = 128 << 10 // paper: 4 MB write buffer
	DefaultTableFileSize = 128 << 10 // paper: ~2-4 MB SSTables
	DefaultLevelBase     = 320 << 10 // paper: 10 MB L1 target
	DefaultMaxLevels     = 7
	levelMultiplier      = 10 // per-level size ratio
)

func (g Geometry) withDefaults() Geometry {
	if g.MemtableSize <= 0 {
		g.MemtableSize = DefaultMemtableSize
	}
	if g.BlockSize <= 0 {
		g.BlockSize = sstable.DefaultBlockSize
	}
	if g.TableFileSize <= 0 {
		g.TableFileSize = DefaultTableFileSize
	}
	if g.LevelBase <= 0 {
		g.LevelBase = DefaultLevelBase
	}
	if g.MaxLevels <= 0 {
		g.MaxLevels = DefaultMaxLevels
	}
	return g
}

// levelTarget returns the size budget of 1-based level i.
func (g Geometry) levelTarget(i int) int64 {
	t := g.LevelBase
	for ; i > 1; i-- {
		t *= levelMultiplier
	}
	return t
}

// Options configures a Store. The zero value is usable with an in-memory
// FS; call withDefaults via Open. The write path has one shape whatever the
// options: queue → WAL append → fsync → memtable apply → freeze →
// background flush/compaction on the worker pool.
type Options struct {
	// FS is the untrusted file system holding WAL, SSTables and, unless the
	// listener keeps the version (VersionStore), MANIFEST. Nil means a fresh
	// in-memory FS.
	FS vfs.FS
	// Enclave meters the boundary of the enclave hosting the store's code
	// and trusted data structures. Nil means a private one nobody reads
	// (the unsecured configuration).
	Enclave *sgx.Enclave
	// Listener receives engine events; nil installs a no-op listener.
	Listener EventListener
	// Cache is the read buffer. Nil disables caching (every block read
	// goes to the file system).
	Cache *blockcache.Cache
	// MmapReads selects the mmap read path: data blocks are read directly
	// from untrusted file memory with no OCall and no buffering
	// (§5.5.1 "Support mmap reads"). Incompatible with Transform.
	MmapReads bool
	// Transform seals/opens data blocks at file granularity (eLSM-P1).
	Transform sstable.BlockTransform
	// Geometry sizes the memtable, blocks, table files and levels.
	Geometry
	// KeepVersions bounds retained versions per key during compaction:
	// 0 keeps every version (full history, the paper's chain semantics),
	// 1 keeps only the newest (vanilla LevelDB), k keeps the newest k.
	KeepVersions int
	// DisableCompaction turns off the compaction debt: no level is ever
	// merged down unless Compact asks, so level 1 gathers every flushed run
	// (Figure 7b's "wo. compaction" mode).
	DisableCompaction bool
	// Workers is the worker-token pool bounding how many maintenance jobs
	// (flushes and compactions of disjoint level pairs) may execute
	// concurrently; its size also bounds a job's key-range parts
	// (CompactionInfo.Bounds) and its parallel file builders. It
	// may be SHARED with other stores (the sharded open path passes one pool
	// to every shard so the machine-wide concurrency stays bounded by the
	// pool, not Shards × pool). Nil creates a private pool of
	// DefaultCompactionWorkers() tokens.
	Workers *WorkerPool
	// MaxAsyncCommitBacklog caps how many CommitAsync commits may be
	// accepted but not yet durable; a caller hitting the cap blocks (with
	// context cancellation) until the pipeline drains. 0 selects
	// DefaultMaxAsyncCommitBacklog.
	MaxAsyncCommitBacklog int
	// Obs is this store's observability recorder: the engine observes
	// per-op and per-stage latencies into its histograms, emits sampled
	// commit-group traces, and files structured events (fail-stops, torn
	// WAL recoveries) through it. Nil disables instrumentation entirely —
	// the hot paths guard on the nil before reading the clock, so the
	// uninstrumented store pays only pointer tests.
	Obs *obs.Recorder
}

// DefaultMaxAsyncCommitBacklog bounds the number of acknowledged-but-not-
// yet-durable async commits. Large enough to keep the commit worker
// saturated, small enough to bound the data a crash can lose and the memory
// the pending queue holds.
const DefaultMaxAsyncCommitBacklog = 1024

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.NewMem()
	}
	if o.Enclave == nil {
		o.Enclave = sgx.New(sgx.Params{})
	}
	if o.Listener == nil {
		o.Listener = NopListener{}
	}
	o.Geometry = o.Geometry.withDefaults()
	if o.MaxAsyncCommitBacklog <= 0 {
		o.MaxAsyncCommitBacklog = DefaultMaxAsyncCommitBacklog
	}
	if o.Workers == nil {
		o.Workers = NewWorkerPool(DefaultCompactionWorkers())
	}
	return o
}

// DefaultCompactionWorkers is the auto-resolved maintenance concurrency:
// half the machine's scheduler parallelism, never below two — one slot can
// always run a flush while another rewrites a deep level.
func DefaultCompactionWorkers() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 2 {
		n = 2
	}
	return n
}

// MemtableRunID is the pseudo run ID Job.Filter gets for records streaming
// out of the (trusted, in-enclave) memtable.
const MemtableRunID uint64 = 0

// CompactionInfo describes one compaction (or flush, or bulk load) to the
// listener.
type CompactionInfo struct {
	// InputRuns lists consumed run IDs, newest first. Empty for flushes
	// and bulk loads.
	InputRuns []uint64
	// MemtableInput reports whether the memtable is one of the inputs
	// (flush path).
	MemtableInput bool
	// OutputRun is the ID of the run being produced.
	OutputRun uint64
	// OutputLevel is the 1-based level the output run lands in, at the
	// front. A bulk load's is where its planned size fits; Verify gets the
	// level its built size fits, which is final.
	OutputLevel int
	// BottomMost reports whether no deeper level holds data, enabling
	// tombstone elimination (§5.4 "Handling Deletes").
	BottomMost bool
	// BulkLoad marks direct dataset loads (no verified inputs).
	BulkLoad bool
	// Relabel marks a job that moves its one input run to the front of
	// OutputLevel, the level below the run's, as it is: same ID (OutputRun
	// is the input's), tables, records and run filter. Nothing is merged or
	// written, so Filter, NewProofAppender and RunFilter are never called;
	// the job goes from BeginJob to Verify. The engine asks for one only
	// when the merge would drop nothing: OutputLevel is not bottom-most, or
	// KeepVersions keeps every version, or the run was built bottom-most
	// under the same KeepVersions. A Verify that refuses it with
	// ErrRelabelRefused makes the engine merge the run instead, as a new
	// job.
	Relabel bool
	// BlockSize is the block payload target the output tables are built to.
	BlockSize int
	// TrustedRecords counts the records the job streams from its trusted
	// input — the frozen memtable, a bulk load — beside the input runs'. A
	// flush's is also how many records the frozen logs its install deletes
	// hold: every memtable record came through the log once.
	TrustedRecords int
	// Bounds splits the job's key space into len(Bounds)+1 parts that are
	// merged at once, one goroutine each: part p holds the keys in
	// [Bounds[p-1], Bounds[p]), the first and last part being open below
	// and above. Bounds are user keys in strictly ascending order, so every
	// version of a key lies in one part. There are at most Workers parts.
	// The engine chooses them from the table boundaries of the input with
	// the most tables, from the frozen memtable's or a bulk load's records
	// otherwise; nil is one part. They only balance the work: a listener
	// that verifies the stream checks that the bounds ascend and that every
	// record it is given lies in its part.
	Bounds [][]byte
}

// EventListener is the callback surface through which the eLSM
// authentication layer attaches to the engine, mirroring RocksDB's
// EventListener + CompactionFilter APIs (§5.5.3). The WAL's group tags are
// the listener's alone: the engine hands it every group it appends, and the
// groups recovery replays, and never hashes a record or checks a tag
// itself. The commit hooks fire on the commit worker under commitMu, without
// the engine lock (recovery's OnGroupAppended calls come from Open, before
// the store is shared). BeginJob fires on a maintenance-job goroutine, of
// which SEVERAL may run concurrently (Options.Workers); everything else a
// flush, compaction or bulk load tells the listener goes through the Job it
// returns — where a flush's frozen logs end is CompactionInfo.TrustedRecords.
// State shared between the commit path and the jobs (e.g. the WAL's append
// count) must be internally thread-safe. Implementations must not call back
// into the Store. A listener that is also a VersionStore keeps the engine's
// version, and the store writes no MANIFEST.
type EventListener interface {
	// OnGroupAppended fires once per commit group, before the group's
	// records reach the untrusted log: the listener writes the group's tag
	// into tag — the engine writes it in the group's COMMIT marker — and
	// holds the group's position until OnGroupSynced says whether the group
	// is durable. recs and their bytes are valid for the call only. A group
	// whose append fails is reported to OnGroupSynced as not durable.
	//
	// Open fires it too, with replayed set, once per complete group it
	// replays from the live logs (frozen logs in order, then the active
	// log), and never fires OnGroupSynced for those: everything replayed is
	// on disk, so the listener treats its last replayed group as durable
	// once Open returns. tag is then the one the group's marker carries, for
	// the listener to check.
	OnGroupAppended(recs []record.Record, tag *wal.Tag, replayed bool)
	// OnGroupSynced fires once per appended group, in append order, after
	// the group's fsync: durable reports whether it succeeded. A durable
	// group's position becomes the frontier the listener may seal (and
	// pays its periodic monotonic-counter bump here, so a group pays at most
	// one and it always pins a durable, group-aligned WAL state). A failed
	// fsync leaves the group's durability unknown: the listener drops its
	// position and keeps the previous frontier, which stays valid.
	OnGroupSynced(durable bool)
	// BeginJob fires before a maintenance job's merge starts and returns
	// the handle the engine drives the job through. It must not disturb
	// another job's install: a concurrent job may be inside its window.
	BeginJob(info CompactionInfo) Job
}

// Job is the listener's handle on ONE maintenance job — a flush, a level
// compaction or a bulk load, described by the CompactionInfo BeginJob got.
// It is Figure 4 of the paper as an object: Filter is "Filter()",
// NewProofAppender does the work of "OnTableFileCreated()", Verify is the
// input-root check before install (§5.5.2), and Installed takes the
// trusted state of the installed version into effect. Every method runs on the
// job's own goroutine, in the order listed, except Filter, whose calls come
// from one goroutine per key-range part; only the appenders NewProofAppender
// returns are used elsewhere. Exactly one of Committed (success) or Abort
// (failure at any point after BeginJob) ends a job.
type Job interface {
	// Filter is called for every input record, tagged with the key-range
	// part it belongs to (an index into CompactionInfo.Bounds' parts), its
	// source run (MemtableRunID for memtable records) and whether the engine
	// is dropping it (tombstone elimination or version GC). Each part's
	// records come in merge output order from one goroutine of that part's
	// own; different parts call concurrently. Every call has returned before
	// the first NewProofAppender.
	// rec.Key and rec.Value are the engine's own copy of the record, taken
	// out of the untrusted input before anything looked at it: a kept
	// record is written from these very bytes, so what a listener digests
	// here is what lands in the output. The slices are valid only during
	// the call, or until the job's files are written if the record is
	// kept: the engine then reuses their memory for later jobs. rec.Proof
	// is always empty.
	Filter(part int, srcRun uint64, rec record.Record, dropped bool)
	// NewProofAppender is called once every part's stream has ended, once to
	// size the output files and once per file: the returned appender writes
	// the proofs of the records it is given straight into the SSTable blocks
	// being built. Records reach an appender in merge order. The appenders
	// are then USED concurrently, one per file-builder goroutine and each by
	// that goroutine only, until the last file is written — always before
	// Verify or Abort; whatever the appenders of one job share must be
	// read-only by then. Nil means the records carry no proofs.
	NewProofAppender() (sstable.ProofAppender, error)
	// RunFilter is called after the first NewProofAppender: the bytes it
	// returns are stored in the output run's first table (Table.RunFilterSpan),
	// opaque to the engine, and handed back for the run by SetRunTrust when
	// a later Open recovers it. They live and die with the run's files. Nil
	// stores none.
	RunFilter() []byte
	// Verify is called after all output files are written, under the
	// engine's install lock: from here to Committed/Abort at most one job
	// across the whole store is in flight ("one version install in
	// flight"). An error aborts the job and the engine discards its output.
	// level is the level the output run lands in, final now
	// (CompactionInfo.OutputLevel). A relabel's Verify has no stream to
	// check: it holds the move to the trusted state of the run it moves.
	// The version listing the output is saved next (VersionStore).
	Verify(level int) error
	// Installed is called UNDER THE ENGINE LOCK, immediately after the
	// version listing the output is saved and, for a flush (MemtableInput),
	// the frozen logs that carried the flushed records are deleted — the
	// live WAL is now the active log alone. Fast and in-memory: readers
	// resume as soon as the lock drops. What it returns is the output run's
	// value (RunRef.Trust): the version the engine publishes next, and every
	// later one listing the run, carry it.
	Installed() any
	// Committed ends a job that installed: it is called after Installed
	// WITHOUT the engine lock, still under the install lock.
	Committed()
	// Abort is called when the job fails before Installed (merge error,
	// Verify rejection, a failed save of the version): the listener
	// discards the job's staging state — the output files are being
	// removed.
	Abort()
}

// NopListener ignores all events.
type NopListener struct{}

var _ EventListener = NopListener{}

// OnGroupAppended implements EventListener: it leaves every tag zero and
// checks none.
func (NopListener) OnGroupAppended([]record.Record, *wal.Tag, bool) {}

// OnGroupSynced implements EventListener.
func (NopListener) OnGroupSynced(bool) {}

// BeginJob implements EventListener.
func (NopListener) BeginJob(CompactionInfo) Job { return NopJob{} }

// NopJob is a Job that does nothing and rejects nothing.
type NopJob struct{}

var _ Job = NopJob{}

// Filter implements Job.
func (NopJob) Filter(int, uint64, record.Record, bool) {}

// NewProofAppender implements Job.
func (NopJob) NewProofAppender() (sstable.ProofAppender, error) { return nil, nil }

// RunFilter implements Job: no run filter is stored.
func (NopJob) RunFilter() []byte { return nil }

// Verify implements Job.
func (NopJob) Verify(int) error { return nil }

// Installed implements Job: the output run carries no value.
func (NopJob) Installed() any { return nil }

// Committed implements Job.
func (NopJob) Committed() {}

// Abort implements Job.
func (NopJob) Abort() {}
