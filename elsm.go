// Package elsm is an authenticated log-structured merge-tree key-value
// store for hardware enclaves — a Go reproduction of "Authenticated
// Key-Value Stores with Hardware Enclaves" (Tang et al., MIDDLEWARE 2021).
//
// The store runs its code and small metadata inside a (simulated) SGX
// enclave while placing read buffers and SSTable files in untrusted memory
// and disk. Data outside the enclave is protected by a forest of Merkle
// trees (one per LSM run) with per-record embedded proofs; every GET and
// SCAN result is verified for integrity, freshness and completeness before
// it is returned, and COMPACTION re-authenticates its inputs inside the
// enclave. A trusted monotonic counter defends against rollback.
//
// Quick start:
//
//	store, err := elsm.Open(elsm.Options{})
//	if err != nil { ... }
//	defer store.Close()
//	ts, _ := store.Put([]byte("key"), []byte("value"))
//	res, err := store.Get([]byte("key"))   // verified: integrity+freshness
//
// Every write — single Put or client Batch — rides a cross-client
// group-commit pipeline: concurrent commits coalesce into one grouped WAL
// append, one fsync and at most one monotonic-counter bump, each group is
// marker-terminated in the log so crash recovery replays a prefix of whole
// commits, and the WAL append of one group overlaps the fsync of the
// previous (two-stage pipelining). Batches additionally pack their
// operations into one enclave round trip:
//
//	b := store.NewBatch()
//	b.Put([]byte("k1"), []byte("v1"))
//	b.Delete([]byte("k2"))
//	ts, err = b.Commit() // atomic, durable on return
//
// When throughput matters more than immediate durability, CommitAsync
// acknowledges a batch as soon as its trusted timestamp is assigned and the
// group is appended, resolving the returned future at fsync; Sync is the
// durability barrier:
//
//	fut, err := b.CommitAsync(ctx)
//	ts, err = fut.Ts(ctx)            // acknowledged: timestamp assigned
//	err = store.Sync(ctx)            // everything acknowledged is now durable
//
// Snapshots turn the paper's point-in-time verified reads into a session:
// Snapshot pins the trusted digest snapshot with its runs and memtables, so
// any number of Get/Iter/Scan calls observe the SAME verified state — bit
// for bit — no matter how many flushes or compactions run concurrently:
//
//	snap, err := store.Snapshot()
//	defer snap.Close()
//	res, err = snap.Get([]byte("key"))
//	results, err := snap.Scan([]byte("a"), []byte("z"))
//
// Range reads stream with incremental verification and completeness
// checking, in memory bounded by the chunk size — each iterator is itself a
// point-in-time session — or materialize with Scan, which is built on the
// same verified stream:
//
//	it := store.Iter([]byte("a"), []byte("z"))
//	for it.Next() {
//	    use(it.Key(), it.Value())
//	}
//	if err := it.Close(); err != nil { ... }       // ErrAuthFailed on tamper
//	results, err = store.Scan([]byte("a"), []byte("z"))
//
// Underneath, the store is seven context-first primitives (core.KV): Commit
// of an atomic group, CommitAsync and Sync, GetAt, IterAt, Snapshot and
// Close. Everything on Store, Snapshot and Batch is derived from them here:
// Put and Delete are one-op Commits; Get and Scan are GetAt and a drained
// IterAt at the latest timestamp; and every operation has a ctx-free
// spelling (Put, Get, Iter, Batch.Commit, ...) that passes a nil context,
// meaning "not cancellable", to its Ctx form (PutCtx, GetCtx, IterCtx,
// Batch.CommitCtx, ...). Cancelling a context withdraws a commit still
// waiting in the group-commit queue, stops a streaming iterator and its
// prefetch, and deadlines long verified scans.
//
// A store is a set of shards — one unless told otherwise. For write-heavy
// deployments, Options.Shards hash-partitions it into N independent
// authenticated instances behind a router (N WALs, N group-commit
// pipelines — and N independent trust roots), with the same API on top:
// batches split across shards and commit in parallel, scans merge the
// per-shard verified streams in key order, and snapshots pin all shards
// atomically:
//
//	store, err := elsm.Open(elsm.Options{Dir: dir, Shards: 4})
//
// The shard count is part of the on-disk layout — reopen with the value
// the store was created with, and pass the same Platform and ShardCounters
// (one counter per shard, one for an unsharded store) to unseal the trusted
// state and keep rollback detection across restarts.
//
// Read replicas scale verified reads: a leader exports portable verified
// checkpoints and ships its committed groups with attestation, and a
// follower — bootstrapped from the checkpoint, tailing the shipped log —
// serves the same verified Gets and Scans read-only (writes fail with
// ErrReadOnlyReplica). Every checkpoint run and every shipped group is
// verified against attested digests before the follower applies it;
// tampering anywhere fail-stops the replica instead of serving wrong
// data. Both sides derive their platform from a shared secret (the
// stand-in for remote attestation):
//
//	platform := sgx.NewPlatformFromSecret(secret)
//	leader, _ := elsm.Open(elsm.Options{Platform: platform})
//	src, _ := leader.ReplicationSource()      // or NewFollowerSource(addr)
//	follower, _ := elsm.OpenFollower(elsm.Options{Platform: platform}, src)
//	res, _ := follower.Get([]byte("key"))     // verified replica read
//
// Stats.ReplLagGroups / ReplLagBytes report how far a follower trails;
// elsm-server serves the same roles with -repl-secret (leader) and
// -follow (replica).
//
// Replication degrades gracefully and fails over: the tailer reconnects
// transient transport failures with backoff (Stats.ReplReconnects), a
// follower that falls behind the leader's retained ring re-bootstraps
// from a fresh checkpoint automatically (Stats.ReplRebootstraps), and
// when the leader dies, Promote fences it out — every checkpoint and
// shipped frame carries a sealed replication epoch, and frames from a
// deposed epoch are rejected with repl.ErrFenced:
//
//	// leader died; on the replica:
//	epoch, err := follower.Promote(ctx) // drain, seal new epoch, go writable
//	src, _ := follower.ReplicationSource() // the promoted store leads now
//
// (Over the wire: elsm-cli promote.) Verification failures never self-heal:
// a follower that detected tampering stays down with ReplicationErr.
//
// Three modes reproduce the paper's configurations: ModeP2 (the
// contribution: buffers outside the enclave, record-granularity Merkle
// authentication), ModeP1 (the strawman: everything in-enclave,
// file-granularity sealing) and ModeUnsecured (plain LSM baseline).
package elsm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/obs"
	"elsm/internal/repl"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// Mode selects the system design being run (Table 1 of the paper).
type Mode int

const (
	// ModeP2 is eLSM-P2, the paper's contribution: code and metadata in
	// the enclave, read buffers and files outside, Merkle-authenticated.
	ModeP2 Mode = iota + 1
	// ModeP1 is the eLSM-P1 strawman: read buffers inside the enclave,
	// file-granularity sealing, no Merkle forest.
	ModeP1
	// ModeUnsecured is the plain LSM baseline with no enclave.
	ModeUnsecured
)

func (m Mode) String() string {
	switch m {
	case ModeP2:
		return "eLSM-P2"
	case ModeP1:
		return "eLSM-P1"
	case ModeUnsecured:
		return "unsecured"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result is a verified query result.
type Result = core.Result

// Options configures Open. The zero value opens an in-memory eLSM-P2 store
// of one shard. Its enclave only counts boundary traffic (Stats.ECalls,
// OCalls, CopiedBytes); the paper-reproduction harness passes a simulated one
// (internal/costmodel) through core.Config.Enclave to page and price what is
// counted. No option changes the shape of the write path: every write is logged, fsynced and applied by
// the group-commit pipeline, and flush/compaction run in the background.
type Options struct {
	// Mode selects the design (default ModeP2).
	Mode Mode
	// Dir stores data in an OS directory instead of memory.
	Dir string
	// FS overrides the untrusted file system (takes precedence over Dir).
	FS vfs.FS
	// CacheSize is the read-buffer size in bytes (0 = no buffer).
	CacheSize int
	// MmapReads selects the mmap read path (P2/unsecured only).
	MmapReads bool
	// KeepVersions bounds retained versions per key (0 = keep all).
	KeepVersions int
	// Encryption enables the confidentiality layer (§5.6.2).
	Encryption *EncryptionOptions
	// RequireCleanRecovery refuses recovery with unverified WAL suffixes.
	RequireCleanRecovery bool
	// Platform persists the sealing root across restarts (required to
	// unseal the trusted state after reopen); see ShardCounters for the
	// other half of the root of trust.
	Platform *sgx.Platform
	// IterChunkKeys bounds how many distinct keys a streaming iterator
	// chunk covers per run — the unit of per-ECall verification work and
	// of background prefetch (0 = the built-in default, currently 512).
	// Larger chunks amortize enclave boundary crossings better; smaller
	// chunks bound the enclave-resident working set.
	IterChunkKeys int
	// GroupCommitWindow makes a commit leader wait this long for more
	// concurrent commits to join its group before flushing it, trading
	// single-writer latency for larger groups. 0 (the default) relies on
	// the natural batching window: while one group's fsync is in flight,
	// the next group accumulates. AutoGroupCommitWindow derives the wait
	// adaptively from the observed fsync latency (an EWMA; the resolved
	// value is reported in Stats.GroupCommitWindowNanos). Capped at one
	// second.
	GroupCommitWindow time.Duration
	// MaxAsyncCommitBacklog caps how many Batch.CommitAsync commits may
	// be acknowledged but not yet durable at once (0 = the built-in
	// default, currently 1024). A caller hitting the cap blocks — with
	// context cancellation — until the durability pipeline drains. The
	// cap bounds both the memory the pending queue holds and the window
	// of acknowledged writes a crash can lose.
	MaxAsyncCommitBacklog int
	// Shards partitions the store into this many independent authenticated
	// instances behind a stable-hash router (0 or 1 = a single instance,
	// the previous behaviour; must be a power of two). Each shard owns its
	// own WAL, memtable pair, digest forest, group committer, maintenance
	// worker and monotonic counter under a per-shard subdirectory
	// ("shard-00", "shard-01", ...), so concurrent writers spread across N
	// commit pipelines and N fsync streams instead of serializing through
	// one. Single-key operations route to one shard; batches split into
	// per-shard sub-batches committed in parallel (atomic per shard,
	// all-or-error at the router); scans merge the per-shard verified
	// streams in key order, preserving completeness; Snapshot pins all N
	// shards atomically. With Shards > 1, trusted timestamps are per-shard
	// (values from different shards are incomparable) and Snapshot.Ts
	// reports the router's commit sequence instead. The shard count is
	// part of the on-disk layout: reopen with the value the store was
	// created with.
	Shards int
	// ReplRingBytes bounds how many recently committed group bytes each
	// shard's replication hub retains for tail streams (0 = the built-in
	// default, currently 8 MB). A follower whose cursor falls out of the
	// ring gets repl.ErrBehind and must re-bootstrap from a checkpoint, so
	// smaller rings trade memory for re-bootstrap frequency under follower
	// downtime. Leaders only.
	ReplRingBytes int
	// ShardCounters persists each shard's root of trust across restarts:
	// one trusted monotonic counter per shard, in shard order (one entry
	// for an unsharded store). Each shard seals and verifies against its
	// own counter, so one shard's state never binds another's. Empty means
	// fresh counters (no rollback detection across reopen).
	ShardCounters []*sgx.MonotonicCounter
	// CompactionWorkers bounds how many background maintenance jobs —
	// memtable flushes plus compactions of disjoint level pairs — run
	// concurrently. The pool is shared across all shards, so ingest-heavy
	// shards borrow idle workers from quiet ones; flushes are always
	// dispatched first (they unblock stalled writers) and the remaining
	// jobs run in compaction-debt order (bytes over each level's size
	// target). 0 = auto (max(2, GOMAXPROCS/2)); negative is rejected.
	CompactionWorkers int
	// DisableInstrumentation turns the observability layer off entirely:
	// no latency histograms, no traces, no event log. The instrumented
	// store pays only atomic increments on its hot paths (and a pointer
	// test when off), so leaving it on is the intended default; the switch
	// exists for overhead measurement and ultra-lean embedded uses.
	DisableInstrumentation bool
	// SlowOpThreshold routes any commit group slower end-to-end than this
	// into the slow-op log with its full stage breakdown, regardless of
	// trace sampling (0 = the built-in default, currently 50ms).
	SlowOpThreshold time.Duration
	// TraceSampleEvery records every Nth commit group as a completed trace
	// in the trace ring (0 = the built-in default, currently 64; 1 traces
	// every group — debugging only, the ring churns fast).
	TraceSampleEvery int
	// Advanced engine tuning (zero = defaults).
	MemtableSize  int
	TableFileSize int
	LevelBase     int64
	MaxLevels     int
	BlockSize     int
}

// AutoGroupCommitWindow selects the adaptive group-commit window: the
// leader wait tracks half the fsync-latency EWMA instead of a fixed
// duration, so fast storage pays (near) zero delay while slow storage gets
// groups sized to its fsync cost.
const AutoGroupCommitWindow = lsm.AutoGroupCommitWindow

// validate rejects option values that would silently misbehave.
func (o Options) validate() error {
	if o.Mode < ModeP2 || o.Mode > ModeUnsecured {
		return fmt.Errorf("elsm: unknown mode %d", o.Mode)
	}
	if o.IterChunkKeys < 0 {
		return fmt.Errorf("elsm: IterChunkKeys must be ≥ 0, got %d", o.IterChunkKeys)
	}
	if o.GroupCommitWindow < 0 && o.GroupCommitWindow != AutoGroupCommitWindow {
		return fmt.Errorf("elsm: GroupCommitWindow must be ≥ 0 or AutoGroupCommitWindow, got %v", o.GroupCommitWindow)
	}
	if o.GroupCommitWindow > time.Second {
		return fmt.Errorf("elsm: GroupCommitWindow %v exceeds the 1s cap (it delays every commit)", o.GroupCommitWindow)
	}
	if o.MaxAsyncCommitBacklog < 0 {
		return fmt.Errorf("elsm: MaxAsyncCommitBacklog must be ≥ 0, got %d", o.MaxAsyncCommitBacklog)
	}
	if o.CompactionWorkers < 0 {
		return fmt.Errorf("elsm: CompactionWorkers must be ≥ 0 (0 = auto), got %d", o.CompactionWorkers)
	}
	if o.ReplRingBytes < 0 {
		return fmt.Errorf("elsm: ReplRingBytes must be ≥ 0, got %d", o.ReplRingBytes)
	}
	if o.SlowOpThreshold < 0 {
		return fmt.Errorf("elsm: SlowOpThreshold must be ≥ 0, got %v", o.SlowOpThreshold)
	}
	if o.TraceSampleEvery < 0 {
		return fmt.Errorf("elsm: TraceSampleEvery must be ≥ 0 (0 = default), got %d", o.TraceSampleEvery)
	}
	if o.Shards < 1 {
		return fmt.Errorf("elsm: Shards must be ≥ 1, got %d", o.Shards)
	}
	if o.Shards&(o.Shards-1) != 0 {
		return fmt.Errorf("elsm: Shards must be a power of two (stable mask-based hash routing), got %d", o.Shards)
	}
	if len(o.ShardCounters) > 0 && len(o.ShardCounters) != o.Shards {
		return fmt.Errorf("elsm: ShardCounters carries %d counters for %d shards (one per shard, in shard order)", len(o.ShardCounters), o.Shards)
	}
	return nil
}

// Store is an authenticated key-value store.
type Store struct {
	// reads is the verified read API (Get, Scan, Iter and their variants),
	// shared with Snapshot; it also holds the confidentiality layer.
	reads
	// opts is what the store was opened with, resolved; a follower's
	// re-bootstrap reopens the shards from it.
	opts Options

	// eng is the open shard set (shards.go). A follower re-bootstrap
	// replaces it wholesale with one pointer store, so every operation
	// loads it once and works against a set that never changes under it.
	eng atomic.Pointer[engineSet]

	// Replication roles (replica.go). A follower applies shipped groups
	// and rejects local writes until promoted; a leader lazily hosts
	// per-shard hubs. readOnly is atomic because Promote flips it while
	// reads and (rejected) writes are in flight.
	readOnly atomic.Bool
	replMu   sync.Mutex // guards tailers, leaders, bootErr
	tailers  []*repl.Tailer
	leaders  []*repl.Leader
	bootErr  error // last failed automatic re-bootstrap (ReplicationErr)

	// Follower failover state: the source OpenFollower ran with, kept so the
	// supervisor can wipe, re-bootstrap and reopen behind shards without
	// operator help. failoverMu serializes the role transitions
	// (re-bootstrap, Promote, Close).
	failoverMu   sync.Mutex
	closed       bool
	fsrc         FollowerSource
	rebootstraps atomic.Uint64

	// obsv is the observability hub (traces, events, store-wide
	// histograms), nil with DisableInstrumentation. It outlives the engine
	// swap; the per-shard recorders travel with the engine set.
	obsv *obs.Observer
}

// base returns the current engine (the router on a sharded store). It is a
// loan, not a handle: after a follower re-bootstrap swaps the shard set,
// operations against the old one fail with the engine's closed error.
func (s *Store) base() core.KV { return s.eng.Load().kv }

// reader implements readSource: the current engine, re-read per call.
func (s *Store) reader() core.Reader { return s.base() }

// resolved applies the defaults, validates, and pins down what every shard
// must share: the parent filesystem (nil stays nil: private in-memory
// shards) and the sealing platform.
func (o Options) resolved() (Options, error) {
	if o.Mode == 0 {
		o.Mode = ModeP2
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if err := o.validate(); err != nil {
		return o, err
	}
	var err error
	if o.FS == nil && o.Dir != "" {
		if o.FS, err = vfs.NewOS(o.Dir); err != nil {
			return o, err
		}
	}
	if o.Platform == nil {
		o.Platform, err = sgx.NewPlatform()
	}
	return o, err
}

// coreConfig maps the engine-tuning options onto a core.Config — the ONE
// place the pass-through fields are enumerated; openShards adds what the
// shards share and what shardEnv yields.
func (o Options) coreConfig(fs vfs.FS) core.Config {
	return core.Config{
		FS:                    fs,
		Platform:              o.Platform,
		CacheSize:             o.CacheSize,
		MmapReads:             o.MmapReads,
		KeepVersions:          o.KeepVersions,
		RequireCleanRecovery:  o.RequireCleanRecovery,
		IterChunkKeys:         o.IterChunkKeys,
		GroupCommitWindow:     o.GroupCommitWindow,
		MaxAsyncCommitBacklog: o.MaxAsyncCommitBacklog,
		CompactionWorkers:     o.CompactionWorkers,
		MemtableSize:          o.MemtableSize,
		TableFileSize:         o.TableFileSize,
		LevelBase:             o.LevelBase,
		MaxLevels:             o.MaxLevels,
		BlockSize:             o.BlockSize,
	}
}

// newHub creates the store's observability hub (nil when instrumentation
// is off).
func (o Options) newHub() *obs.Observer {
	if o.DisableInstrumentation {
		return nil
	}
	return obs.NewObserver(obs.Config{SampleEvery: o.TraceSampleEvery, SlowOpThreshold: o.SlowOpThreshold})
}

// Open creates or recovers a store.
func Open(opts Options) (*Store, error) {
	opts, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	return openStore(opts)
}

// openStore builds the public store over the shard set of resolved options.
func openStore(opts Options) (*Store, error) {
	s := &Store{opts: opts, obsv: opts.newHub()}
	s.src = s
	if opts.Encryption != nil {
		var err error
		if s.enc, err = newEncLayer(*opts.Encryption); err != nil {
			return nil, err
		}
	}
	set, err := openShards(opts, s.obsv)
	if err != nil {
		return nil, err
	}
	s.eng.Store(set)
	return s, nil
}

// Mode reports which design this store runs.
func (s *Store) Mode() Mode { return s.opts.Mode }

// Observer returns the store's observability hub — sampled traces, the
// slow-op log, the structured event log and the store-wide histograms.
// Nil when Options.DisableInstrumentation was set. Safe on a nil store
// (config-validation paths construct servers before a store exists).
func (s *Store) Observer() *obs.Observer {
	if s == nil {
		return nil
	}
	return s.obsv
}

// Recorders returns the per-shard latency recorders in shard order (one
// entry for an unsharded store; nil when instrumentation is off). The
// admin endpoint and the STATS protocols render these — callers must
// treat the histograms as read-only.
func (s *Store) Recorders() []*obs.Recorder {
	if s == nil {
		return nil
	}
	return s.eng.Load().recs
}

// Put writes a key-value pair, returning the trusted timestamp assigned
// inside the enclave. The write is durable when Put returns.
func (s *Store) Put(key, value []byte) (uint64, error) { return s.PutCtx(nil, key, value) }

// PutCtx is Put with cancellation: a context cancelled while the write
// still waits in the group-commit queue withdraws it (nothing is written);
// once the committer has claimed it, the write completes regardless and
// its outcome is returned.
func (s *Store) PutCtx(ctx context.Context, key, value []byte) (uint64, error) {
	if s.readOnly.Load() {
		return 0, ErrReadOnlyReplica
	}
	if s.enc != nil {
		var err error
		if key, value, err = s.enc.sealRecord(key, value); err != nil {
			return 0, err
		}
	}
	return s.base().Commit(ctx, []core.BatchOp{{Key: key, Value: value}})
}

// Delete removes a key (a verified tombstone write).
func (s *Store) Delete(key []byte) (uint64, error) { return s.DeleteCtx(nil, key) }

// DeleteCtx is Delete with commit-queue cancellation (see PutCtx).
func (s *Store) DeleteCtx(ctx context.Context, key []byte) (uint64, error) {
	if s.readOnly.Load() {
		return 0, ErrReadOnlyReplica
	}
	if s.enc != nil {
		var err error
		if key, err = s.enc.sealKey(key); err != nil {
			return 0, err
		}
	}
	return s.base().Commit(ctx, []core.BatchOp{{Key: key, Delete: true}})
}

// Sync is the durability barrier: it returns once every commit accepted
// before the call — synchronous Commits and acknowledged CommitAsyncs
// alike — is fsynced to stable storage.
func (s *Store) Sync(ctx context.Context) error { return s.base().Sync(ctx) }

// ErrAuthFailed is re-exported so callers can classify verification
// failures with errors.Is.
var ErrAuthFailed = core.ErrAuthFailed

// IsAuthFailure reports whether err is an authentication failure (forged,
// stale, incomplete or rolled-back data detected).
func IsAuthFailure(err error) bool { return errors.Is(err, core.ErrAuthFailed) }

// Close seals the final trusted state and releases resources. On a
// follower it stops the tailers first (waiting out an in-flight automatic
// re-bootstrap); on a leader it detaches the replication hubs (ending
// every follower's stream).
func (s *Store) Close() error {
	s.failoverMu.Lock()
	s.closed = true
	s.failoverMu.Unlock()
	for _, t := range s.currentTailers() {
		t.Close()
	}
	s.replMu.Lock()
	for _, l := range s.leaders {
		l.Close()
	}
	s.leaders = nil
	s.replMu.Unlock()
	return s.base().Close()
}
