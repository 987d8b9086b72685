// Package lsm implements a leveled log-structured merge-tree key-value
// store in the style of Google LevelDB / Facebook RocksDB (§2 of the
// paper): an in-enclave memtable (L0) backed by an untrusted write-ahead
// log, immutable sorted runs at levels L1..Lq stored as SSTable files in
// the untrusted world, full-run leveled compaction, and a read path that
// goes through either a block cache ("read buffer") or mmap-style direct
// views of untrusted file memory.
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
	"time"

	"elsm/internal/blockcache"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
)

// Default tuning values. The byte-denominated defaults are the paper's
// LevelDB values scaled by 1/32.
const (
	DefaultMemtableSize    = 128 << 10 // paper: 4 MB write buffer
	DefaultBlockSize       = 4 << 10   // unscaled: record sizes are unscaled
	DefaultTableFileSize   = 128 << 10 // paper: ~2-4 MB SSTables
	DefaultLevelBase       = 320 << 10 // paper: 10 MB L1 target
	DefaultLevelMultiplier = 10
	DefaultMaxLevels       = 7
)

// Options configures a Store. The zero value is usable with an in-memory
// FS; call withDefaults via Open. The write path has one shape whatever the
// options: queue → WAL append → fsync → memtable apply → freeze →
// background flush/compaction on the worker pool.
type Options struct {
	// FS is the untrusted file system holding WAL, SSTables and MANIFEST.
	// Nil means a fresh in-memory FS.
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
	// MemtableSize triggers a flush when the write buffer exceeds it.
	MemtableSize int
	// BlockSize is the SSTable block payload target.
	BlockSize int
	// TableFileSize caps individual SSTable files.
	TableFileSize int
	// LevelBase is the L1 size target; level i targets
	// LevelBase × LevelMultiplier^(i-1).
	LevelBase int64
	// LevelMultiplier is the per-level size ratio.
	LevelMultiplier int
	// MaxLevels bounds the number of on-disk levels.
	MaxLevels int
	// KeepVersions bounds retained versions per key during compaction:
	// 0 keeps every version (full history, the paper's chain semantics),
	// 1 keeps only the newest (vanilla LevelDB), k keeps the newest k.
	KeepVersions int
	// DisableCompaction stops merging entirely: each flush appends a new
	// immutable run to level 1 (Figure 7b's "wo. compaction" mode).
	DisableCompaction bool
	// CompactionWorkers bounds how many maintenance jobs (flushes and
	// compactions of disjoint level pairs) may execute concurrently.
	// 0 selects DefaultCompactionWorkers() = max(2, GOMAXPROCS/2).
	CompactionWorkers int
	// Workers, when non-nil, is a worker-token pool SHARED with other
	// stores (the sharded open path passes one pool to every shard so the
	// machine-wide concurrency stays bounded by CompactionWorkers, not
	// Shards × CompactionWorkers). Nil creates a private pool of
	// CompactionWorkers tokens.
	Workers *WorkerPool
	// GroupCommitMaxOps caps how many operations one commit group may
	// carry (0 = unbounded). 1 disables cross-client coalescing entirely —
	// every commit pays its own fsync and counter-bump check — the per-op
	// reference core/groupcommit_test.go measures grouping against.
	GroupCommitMaxOps int
	// GroupCommitWindow makes a commit leader wait this long before
	// draining the queue, trading latency for larger groups. 0 (the
	// default) relies on the natural batching window: the queue refills
	// while the previous group's fsync is in flight.
	// AutoGroupCommitWindow (-1) derives the wait adaptively from an EWMA
	// of observed fsync latency (half the EWMA, capped at 2ms); the
	// resolved value is reported in Stats.GroupCommitWindowNanos.
	GroupCommitWindow time.Duration
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
// yet-durable async commits. Large enough to keep the WAL/fsync pipeline
// saturated, small enough to bound the data a crash can lose and the memory
// the pending queue holds.
const DefaultMaxAsyncCommitBacklog = 1024

// AutoGroupCommitWindow selects the adaptive leader batching window: the
// wait tracks half the observed fsync-latency EWMA instead of a fixed
// duration, so fast storage pays (near) zero delay and slow storage gets
// groups sized to its fsync cost.
const AutoGroupCommitWindow time.Duration = -1

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
	if o.MemtableSize <= 0 {
		o.MemtableSize = DefaultMemtableSize
	}
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.TableFileSize <= 0 {
		o.TableFileSize = DefaultTableFileSize
	}
	if o.LevelBase <= 0 {
		o.LevelBase = DefaultLevelBase
	}
	if o.LevelMultiplier <= 1 {
		o.LevelMultiplier = DefaultLevelMultiplier
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = DefaultMaxLevels
	}
	if o.GroupCommitWindow < 0 && o.GroupCommitWindow != AutoGroupCommitWindow {
		o.GroupCommitWindow = 0
	}
	if o.MaxAsyncCommitBacklog <= 0 {
		o.MaxAsyncCommitBacklog = DefaultMaxAsyncCommitBacklog
	}
	if o.CompactionWorkers <= 0 {
		o.CompactionWorkers = DefaultCompactionWorkers()
	}
	if o.Workers == nil {
		o.Workers = NewWorkerPool(o.CompactionWorkers)
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

// levelTarget returns the size budget of 1-based level i.
func (o Options) levelTarget(i int) int64 {
	t := o.LevelBase
	for ; i > 1; i-- {
		t *= int64(o.LevelMultiplier)
	}
	return t
}

// MemtableRunID is the pseudo run ID Job.Filter gets for records streaming
// out of the (trusted, in-enclave) memtable.
const MemtableRunID uint64 = 0

// CompactionInfo describes one compaction (or flush, or bulk load) to the
// listener.
type CompactionInfo struct {
	// InputRuns lists consumed run IDs, newest first. Empty for bulk loads.
	InputRuns []uint64
	// MemtableInput reports whether the memtable is one of the inputs
	// (flush path).
	MemtableInput bool
	// OutputRun is the ID of the run being produced.
	OutputRun uint64
	// OutputLevel is the 1-based level the output run lands in.
	OutputLevel int
	// BottomMost reports whether no deeper level holds data, enabling
	// tombstone elimination (§5.4 "Handling Deletes").
	BottomMost bool
	// BulkLoad marks direct dataset loads (no verified inputs).
	BulkLoad bool
}

// EventListener is the callback surface through which the eLSM
// authentication layer attaches to the engine, mirroring RocksDB's
// EventListener + CompactionFilter APIs (§5.5.3). Commit-path hooks
// (OnWALAppend, the OnGroup* trio, OnMemtableFrozen) fire on committing
// goroutines. BeginJob fires on a maintenance-job goroutine, of which
// SEVERAL may run concurrently (Options.CompactionWorkers); everything else
// a flush, compaction or bulk load tells the listener goes through the Job
// it returns. State shared between the commit path and the jobs (e.g. a WAL
// digest chain) must be internally thread-safe. Implementations must not
// call back into the Store.
type EventListener interface {
	// OnWALAppend fires before a record is appended to the untrusted WAL,
	// letting the enclave extend its WAL digest chain (§5.3 step w1).
	OnWALAppend(rec record.Record)
	// OnGroupAppended fires once per commit group, immediately after the
	// group's records were appended (NOT yet fsynced) to the untrusted
	// log, on the appending goroutine under the engine lock. With the
	// pipelined committer the WAL chain tip runs ahead of durable storage;
	// this hook lets the authentication layer remember the chain value at
	// each group boundary so the matching OnGroupCommit can promote exactly
	// that prefix to "durable" — a seal must never fingerprint WAL records
	// an fsync has not yet confirmed, or a crash would strand the counter
	// beyond any recoverable state.
	OnGroupAppended()
	// OnGroupCommit fires once per commit group, after the group's n
	// records are durably synced to the untrusted log, in group append
	// order. The authentication layer performs its periodic monotonic-
	// counter bump here, so a group pays at most one bump — and the bump
	// always pins a durable, group-aligned WAL state (sealing mid-append
	// would bind the counter to records a crash could still tear away).
	OnGroupCommit(n int)
	// OnGroupAbandoned fires instead of OnGroupCommit when an appended
	// group's fsync FAILED: the group's durability is unknown, so the
	// listener must consume (and discard) the group's OnGroupAppended mark
	// without promoting the durable frontier — every appended group fires
	// exactly one of OnGroupCommit/OnGroupAbandoned, in append order, or
	// the mark queue would desynchronize and later promotions would pin
	// the wrong chain value.
	OnGroupAbandoned()
	// OnMemtableFrozen fires when the active memtable (and with it the
	// active WAL) is frozen for a background flush: records appended from
	// now on belong to the NEXT flush generation, so the authentication
	// layer starts a fresh digest chain for them alongside the full one.
	OnMemtableFrozen()
	// BeginJob fires before a maintenance job's merge starts and returns
	// the handle the engine drives the job through. It must not disturb
	// another job's install: a concurrent job may be inside its window.
	BeginJob(info CompactionInfo) Job
}

// Job is the listener's handle on ONE maintenance job — a flush, a level
// compaction or a bulk load, described by the CompactionInfo BeginJob got.
// It is Figure 4 of the paper as an object: Filter is "Filter()",
// NewProofAppender does the work of "OnTableFileCreated()", Verify is the
// input-root check before install (§5.5.2), and Installed/Committed are the
// digest swap and the counter-bound seal around the version install that
// §5.6.1's rollback defence stands on. Every method runs on the job's own
// goroutine, in the order listed; only the appenders NewProofAppender
// returns are used elsewhere. Exactly one of Committed (success) or Abort
// (failure at any point after BeginJob) ends a job.
type Job interface {
	// Filter is called for every input record in merge output order, tagged
	// with its source run (MemtableRunID for memtable records) and whether
	// the engine is dropping it (tombstone elimination or version GC).
	// rec.Key and rec.Value are the engine's own copy of the record, taken
	// out of the untrusted input before anything looked at it: a kept
	// record is written from these very bytes, so what a listener digests
	// here is what lands in the output. The slices are valid only during
	// the call unless the record is kept; rec.Proof is always empty.
	Filter(srcRun uint64, rec record.Record, dropped bool)
	// NewProofAppender is called once the merge stream has ended, once to
	// size the output files and once per file: the returned appender writes
	// the proof of each record it is given straight into the SSTable block
	// being built. Records reach an appender in merge order. The appenders
	// are then USED concurrently, one per file-builder goroutine and each by
	// that goroutine only, until the last file is written — always before
	// Verify or Abort; whatever the appenders of one job share must be
	// read-only by then. Nil means the records carry no proofs.
	NewProofAppender() (sstable.ProofAppender, error)
	// Verify is called after all output files are written, under the
	// engine's install lock: from here to Committed/Abort at most one job
	// across the whole store is in flight ("one version install in
	// flight"). An error aborts the job and the engine discards its output.
	// The listener may stage a transition seal here — it is written before
	// the manifest makes the install durable.
	Verify() error
	// Installed is called UNDER THE ENGINE LOCK, immediately after the
	// manifest naming the new version is durable and, for a flush
	// (MemtableInput), the frozen logs that carried the flushed records are
	// deleted — the live WAL is now the active log alone. The listener swaps
	// in its staged digests (and rebases its WAL chain) here: fast and
	// in-memory, readers resume as soon as the lock drops.
	Installed()
	// Committed is called after Installed WITHOUT the engine lock, still
	// under the install lock: the listener's slow durability work (counter
	// bump, state seal and write) happens here, off the read/write paths.
	Committed()
	// Abort is called when the job fails before Installed (merge error,
	// Verify rejection, manifest write failure): the listener discards the
	// job's staging state, including any transition seal it staged — the
	// output files are being removed, so a recovered directory can never
	// match the staged state.
	Abort()
}

// NopListener ignores all events.
type NopListener struct{}

var _ EventListener = NopListener{}

// OnWALAppend implements EventListener.
func (NopListener) OnWALAppend(record.Record) {}

// OnGroupAppended implements EventListener.
func (NopListener) OnGroupAppended() {}

// OnGroupCommit implements EventListener.
func (NopListener) OnGroupCommit(int) {}

// OnGroupAbandoned implements EventListener.
func (NopListener) OnGroupAbandoned() {}

// OnMemtableFrozen implements EventListener.
func (NopListener) OnMemtableFrozen() {}

// BeginJob implements EventListener.
func (NopListener) BeginJob(CompactionInfo) Job { return NopJob{} }

// NopJob is a Job that does nothing and rejects nothing.
type NopJob struct{}

var _ Job = NopJob{}

// Filter implements Job.
func (NopJob) Filter(uint64, record.Record, bool) {}

// NewProofAppender implements Job.
func (NopJob) NewProofAppender() (sstable.ProofAppender, error) { return nil, nil }

// Verify implements Job.
func (NopJob) Verify() error { return nil }

// Installed implements Job.
func (NopJob) Installed() {}

// Committed implements Job.
func (NopJob) Committed() {}

// Abort implements Job.
func (NopJob) Abort() {}
