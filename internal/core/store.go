package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/blockcache"
	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// trustedStateName is the untrusted file holding the sealed enclave state.
const trustedStateName = "TRUSTED.bin"

// DefaultCounterInterval is how many writes may elapse between monotonic
// counter bumps (the tunable write buffer of §5.6.1: smaller = smaller
// rollback window, more counter traffic).
const DefaultCounterInterval = 1024

// Config configures an eLSM store. The engine fields pass through to
// lsm.Options; none of them changes the shape of the write path.
type Config struct {
	// FS is the untrusted file system. Nil means a fresh in-memory FS.
	FS vfs.FS
	// Enclave hosts the store; nil means a fresh one. Shards share one, and
	// the paper-reproduction benchmarks pass a simulated one
	// (costmodel.Sim) to price what it counts.
	Enclave *sgx.Enclave
	// Platform is the machine root of trust for sealing; nil creates a
	// fresh one (note: a fresh platform cannot unseal state sealed by a
	// previous instance — pass the same Platform across restarts).
	Platform *sgx.Platform
	// Counter is the trusted monotonic counter; pass the same instance
	// across restarts to enable rollback detection.
	Counter *sgx.MonotonicCounter
	// CacheSize is the read-buffer capacity in bytes; 0 disables the
	// buffer (use MmapReads instead).
	CacheSize int
	// MmapReads selects the mmap read path (eLSM-P2-mmap).
	MmapReads bool
	// CounterInterval overrides DefaultCounterInterval; negative disables
	// periodic bumps (bumps still occur at every compaction).
	CounterInterval int
	// RequireCleanRecovery rejects recovery when the WAL holds records
	// appended after the last sealed state (closing the §5.6.1 window at
	// the cost of refusing unclean restarts).
	RequireCleanRecovery bool
	// IterChunkKeys bounds how many distinct keys a streaming iterator
	// chunk covers per run (0 = DefaultIterChunkKeys).
	IterChunkKeys int
	// GroupCommitWindow makes a commit leader wait this long for more
	// concurrent commits to join its group (0 = rely on the natural
	// batching window of the previous group's fsync).
	GroupCommitWindow time.Duration
	// MaxAsyncCommitBacklog caps acknowledged-but-not-yet-durable
	// CommitAsync commits (0 = engine default).
	MaxAsyncCommitBacklog int
	// Workers bounds how many maintenance jobs (flushes + compactions of
	// disjoint level pairs) run concurrently, and may be shared across
	// several stores (shard sets); nil gives this store its own pool of
	// lsm.DefaultCompactionWorkers() tokens.
	Workers *lsm.WorkerPool
	// Obs is this shard's observability recorder, threaded through to the
	// engine and the verified read paths. Nil disables instrumentation.
	Obs *obs.Recorder
	// NodeCache shares one verified-node cache (NewNodeCache) among the
	// stores of one Enclave — all shards of a process; nil gives this store
	// its own.
	NodeCache *merkle.NodeCache
	// KeepVersions, MemtableSize, TableFileSize, LevelBase, MaxLevels,
	// BlockSize and DisableCompaction pass through to the engine (zero =
	// engine default).
	KeepVersions      int
	MemtableSize      int
	TableFileSize     int
	LevelBase         int64
	MaxLevels         int
	BlockSize         int
	DisableCompaction bool
}

// engineOptions is the Config → lsm.Options pass-through the three Opens
// share; each sets what its configuration decides: Enclave, Listener, Cache,
// Transform.
func (cfg Config) engineOptions() lsm.Options {
	fs := cfg.FS
	if fs == nil {
		fs = vfs.NewMem()
	}
	return lsm.Options{
		FS:                    fs,
		MmapReads:             cfg.MmapReads,
		MemtableSize:          cfg.MemtableSize,
		BlockSize:             cfg.BlockSize,
		TableFileSize:         cfg.TableFileSize,
		LevelBase:             cfg.LevelBase,
		MaxLevels:             cfg.MaxLevels,
		KeepVersions:          cfg.KeepVersions,
		DisableCompaction:     cfg.DisableCompaction,
		GroupCommitWindow:     cfg.GroupCommitWindow,
		MaxAsyncCommitBacklog: cfg.MaxAsyncCommitBacklog,
		Workers:               cfg.Workers,
		Obs:                   cfg.Obs,
	}
}

// chunkKeys resolves IterChunkKeys.
func (cfg Config) chunkKeys() int {
	if cfg.IterChunkKeys <= 0 {
		return DefaultIterChunkKeys
	}
	return cfg.IterChunkKeys
}

// Result is a verified query result.
type Result struct {
	Key   []byte
	Value []byte
	Ts    uint64
	Found bool
}

// Reader is the verified read surface a live store and a Snapshot share:
// the paper's GET(k, tsq) and SCAN(k1, k2, tsq). On authenticated stores
// every result is verified before it is returned.
type Reader interface {
	// GetAt returns the newest value with timestamp ≤ tsq (record.MaxTs for
	// the latest). The ctx is checked before the lookup starts.
	GetAt(ctx context.Context, key []byte, tsq uint64) (Result, error)
	// IterAt streams the newest value ≤ tsq of every key in [start, end] in
	// bounded memory over one pinned point-in-time view. A cancelled ctx
	// stops the stream and its prefetch; errors (verification failures
	// included) surface through the iterator's Err/Close, and the iterator
	// must be closed to release its pins.
	IterAt(ctx context.Context, start, end []byte, tsq uint64) Iterator
}

// KV is the call surface every store implements — eLSM-P2, the raw store
// behind eLSM-P1 and the unsecured baseline, the shard router and the Eleos
// comparator: Equation 1 of the paper (PUT, GET, SCAN) with the write
// generalized to an atomic group and durability made pipelinable. These
// seven methods are the primitives; everything else a caller may want
// (Put, Delete, Get, Scan here in kv.go; the ctx-free and "latest" spellings
// on the public elsm.Store) is derived from them once, so a new front end or
// baseline implements seven methods and gets the rest.
//
// Every ctx may be nil, meaning "not cancellable".
type KV interface {
	Reader

	// Commit applies a group of writes atomically and durably in one
	// enclave round trip, returning the commit timestamp of the group (its
	// last record's). An empty group writes nothing. A ctx cancelled while
	// the group still waits in the commit queue withdraws it (nothing is
	// written); once claimed by the committer it completes regardless.
	Commit(ctx context.Context, ops []BatchOp) (uint64, error)
	// CommitAsync applies a group of writes with pipelined durability: the
	// future is acknowledged once the commit timestamp is assigned and the
	// group is appended to the log, and resolved once it is fsynced and
	// visible. Sync is the durability barrier closing the window.
	CommitAsync(ctx context.Context, ops []BatchOp) (*CommitFuture, error)
	Sync(ctx context.Context) error

	// Snapshot captures a consistent, repeatable read session: the current
	// digest snapshot with its runs and memtables pinned. Reads through it
	// return identical (verified, on authenticated stores) results no
	// matter what flushes, compactions or WAL rotations happen underneath,
	// until Close releases the pins.
	Snapshot() (Snapshot, error)

	Close() error
}

// CommitFuture is the handle of an asynchronous commit (see lsm.CommitFuture).
type CommitFuture = lsm.CommitFuture

// Snapshot is a pinned point-in-time read session over a KV store. On
// authenticated stores every read through it is verified exactly like the
// live paths, against the digest forest captured at creation. GetAt and
// IterAt clamp tsq to Ts.
type Snapshot interface {
	Reader
	// Ts returns the snapshot's trusted timestamp frontier: the commit
	// timestamp of the last write visible in it.
	Ts() uint64
	// Close releases the snapshot's pins. Idempotent; open iterators keep
	// their own pins until closed.
	Close() error
}

// Store is the eLSM-P2 authenticated store: engine code and small metadata
// inside the enclave, read buffers and files outside, all out-of-enclave
// data authenticated by the Merkle forest.
type Store struct {
	engine  *lsm.Store
	enclave *sgx.Enclave
	fs      vfs.FS

	platform    *sgx.Platform
	measurement sgx.Measurement
	sealKey     [32]byte
	counter     *sgx.MonotonicCounter

	// epoch is the replication epoch: it increments exactly once per
	// follower→leader promotion and is attested into every checkpoint
	// header and shipped group frame. A follower rejects frames from an
	// older epoch (repl.ErrFenced), so a zombie leader that survived its
	// own demotion can never extend the verified history. Sealed with the
	// trusted state and folded into the counter-bound fingerprint, so it
	// can no more be rolled back than the digest frontier itself.
	epoch atomic.Uint64

	counterInterval int
	iterChunkKeys   int

	// snap is the lock-free read snapshot of the trusted digest forest:
	// an immutable map swapped atomically by copy-on-write whenever a
	// flush/compaction installs a new version (the ONLY digest mutations).
	// Get/Iter load it without taking any lock, so verified reads never
	// contend with the committer, whose per-record OnWALAppend work holds
	// mu.
	snap atomic.Pointer[trustedView]

	// mu guards the write-side trusted state (WAL digest chains, bump
	// bookkeeping) and serializes snapshot swaps. Readers never take it.
	mu sync.Mutex
	// walDigest chains every record in the live WAL files (frozen logs
	// awaiting a flush install, then the active log); freshDigest chains
	// only the records since the last memtable freeze (the active log).
	// At flush install the frozen logs are deleted and walDigest becomes
	// freshDigest.
	walDigest   hashutil.Hash
	freshDigest hashutil.Hash
	walAppends  uint64
	// The pipelined committer appends ahead of its fsyncs, so the chain
	// tips above run ahead of stable storage. groupMarks queues one mark
	// per appended-but-not-yet-durable commit group (FIFO, in append
	// order); OnGroupCommit pops marks into the durable frontier below,
	// which is the ONLY state commitState may seal — binding the counter
	// to unsynced records would turn a crash into a false rollback.
	groupMarks     []walMark
	durableDigest  hashutil.Hash
	durableFresh   hashutil.Hash
	durableAppends uint64

	// sealMu serializes commitState end to end (fingerprint, counter bump,
	// seal write): the maintenance worker and a commit leader may both
	// reach it concurrently, and an older sealed blob must never overwrite
	// a newer one after the counter moved on.
	sealMu sync.Mutex

	// appendsAtBump records walAppends at the last periodic counter bump;
	// OnGroupCommit bumps again once counterInterval more records have
	// committed, so a whole group shares at most one bump.
	appendsAtBump uint64

	// pendingSeal, when non-nil, is a staged version install awaiting its
	// manifest rename: every seal written while it is set carries it as
	// trustedState.Pending, so recovery from a crash inside the install
	// window can adopt the post-install state. Staged by the installing
	// maintenance job (compactionJob.Verify, inside the engine's serialized
	// install window), cleared by its Installed or retracted by its Abort if
	// the install was abandoned. sealStagedBy is the job that staged it, so
	// only the owning job's abort retracts it (a concurrent failed job must
	// not). Guarded by mu.
	pendingSeal  *pendingState
	sealStagedBy *compactionJob

	// scanTamper, when non-nil, mutates what each run's cursor handed a scan
	// chunk before it is verified — a test-only stand-in for a malicious
	// untrusted host.
	scanTamper func(*runSpan)

	// UnverifiedReplay counts WAL records recovered beyond the last
	// sealed state (the rollback-window records of §5.6.1).
	unverifiedReplay int

	statGets       atomic.Uint64
	statProofBytes atomic.Uint64
	statRunsProbed atomic.Uint64
	// verify checks every proof the read paths are handed.
	verify verifier

	// rec is the shard's observability recorder (nil = instrumentation off).
	rec *obs.Recorder

	// scanPool is the free list of scan-chunk scratch (see scanScratch).
	scanPool chan *scanScratch
}

// VerifyStats aggregates proof-verification work (§7: eLSM's proofs cover
// only levels L1..Li; prior work pays for every level on every GET).
type VerifyStats struct {
	// Gets counts verified point lookups.
	Gets uint64
	// ProofBytes counts embedded-proof bytes verified.
	ProofBytes uint64
	// RunsProbed counts per-run lookups performed.
	RunsProbed uint64
	// NodeCacheHits counts witnesses whose Merkle path walk ended at an
	// already-verified cached node; NodeCacheMisses those walked all the
	// way to the trusted root. NodeHashes counts the interior node hashes
	// the walks computed.
	NodeCacheHits   uint64
	NodeCacheMisses uint64
	NodeHashes      uint64
}

// VerifyStatsSnapshot returns the accumulated counters.
func (c *Store) VerifyStatsSnapshot() VerifyStats {
	return VerifyStats{
		Gets:       c.statGets.Load(),
		ProofBytes: c.statProofBytes.Load(),
		RunsProbed: c.statRunsProbed.Load(),

		NodeCacheHits:   c.verify.nodeHits.Load(),
		NodeCacheMisses: c.verify.nodeMisses.Load(),
		NodeHashes:      c.verify.nodeHashes.Load(),
	}
}

var _ KV = (*Store)(nil)

// NewNodeCache allocates the verified-node cache of one enclave (see
// merkle.NodeCache) and charges its fixed byte budget to the enclave's
// protected memory, once, the way the engine charges table metadata. The
// charge lasts as long as the enclave, as the cache does. It is trusted
// state and must never be placed in the (untrusted) block cache.
func NewNodeCache(e *sgx.Enclave) *merkle.NodeCache {
	e.Alloc(merkle.NodeCacheBytes)
	return merkle.NewNodeCache()
}

// Open creates or recovers an eLSM-P2 store.
func Open(cfg Config) (*Store, error) {
	enclave := cfg.Enclave
	if enclave == nil {
		enclave = sgx.New(sgx.Params{})
	}
	platform := cfg.Platform
	if platform == nil {
		var err error
		platform, err = sgx.NewPlatform()
		if err != nil {
			return nil, err
		}
	}
	counter := cfg.Counter
	if counter == nil {
		counter = sgx.NewMonotonicCounter()
	}
	interval := cfg.CounterInterval
	if interval == 0 {
		interval = DefaultCounterInterval
	}
	if interval < 0 {
		interval = 0
	}
	opts := cfg.engineOptions()
	c := &Store{
		enclave:         enclave,
		fs:              opts.FS,
		platform:        platform,
		counter:         counter,
		counterInterval: interval,
		iterChunkKeys:   cfg.chunkKeys(),
		measurement:     sgx.Measure([]byte("elsm-p2")),
	}
	c.snap.Store(&trustedView{digests: make(map[uint64]runDigest)})
	c.sealKey = platform.SealingKey(c.measurement)
	c.rec = cfg.Obs
	c.verify.nodes = cfg.NodeCache
	if c.verify.nodes == nil {
		c.verify.nodes = NewNodeCache(enclave)
	}
	// Like the node cache, the scan scratch is a fixed budget of protected
	// memory charged once, for as long as the enclave lasts.
	c.scanPool = make(chan *scanScratch, scanScratchSlots)
	enclave.Alloc(scanScratchSlots * scanScratchBytes)
	opts.Enclave = enclave
	opts.Listener = &authListener{c: c}
	if cfg.CacheSize > 0 {
		// P2 places the read buffer OUTSIDE the enclave (§4.2).
		opts.Cache = blockcache.New(cfg.CacheSize, nil)
	}
	engine, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	c.engine = engine
	if err := c.recoverTrustedState(cfg.RequireCleanRecovery); err != nil {
		engine.Close()
		return nil, err
	}
	if !c.fs.Exists(trustedStateName) {
		// A fresh store seals its empty state before accepting writes:
		// recovery refuses data files without sealed state, so deferring
		// the first seal to the interval/flush/close path would leave a
		// window where a crash after the first commit is unrecoverable.
		c.SealState()
	}
	return c, nil
}

// trustedView is an immutable snapshot of the digest forest. The map must
// never be mutated after the view is published via snap; writers
// (compactionJob.Installed, recovery) publish a fresh copy under c.mu.
type trustedView struct {
	digests map[uint64]runDigest
}

// walMark is one commit group's WAL chain state at append time, in both
// bases: digest spans the live logs (frozen + active), fresh spans the
// active log alone (the basis the chain rebases onto at a flush install).
type walMark struct {
	digest  hashutil.Hash
	fresh   hashutil.Hash
	appends uint64
}

// snapshotDigests returns the current immutable digest view — a single
// atomic load, no lock, no copy. Callers must treat the map as read-only.
func (c *Store) snapshotDigests() map[uint64]runDigest {
	return c.snap.Load().digests
}

// stateFingerprint deterministically digests the trusted state for counter
// binding: sorted (runID, root, leaves) triples, the WAL digest and the
// replication epoch. Binding the epoch means a rollback of the sealed blob
// to a pre-promotion value trips the counter check exactly like a rolled
// back digest frontier would.
func stateFingerprint(digests map[uint64]runDigest, walDigest hashutil.Hash, epoch uint64) [32]byte {
	ids := make([]uint64, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	var buf [12]byte
	for _, id := range ids {
		d := digests[id]
		binary.BigEndian.PutUint64(buf[:8], id)
		binary.BigEndian.PutUint32(buf[8:12], uint32(d.NumLeaves))
		h.Write(buf[:])
		h.Write(d.Root[:])
	}
	h.Write(walDigest[:])
	binary.BigEndian.PutUint64(buf[:8], epoch)
	h.Write(buf[:8])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// trustedState is the sealed enclave state persisted to the untrusted FS.
type trustedState struct {
	Digests    map[uint64]runDigest `json:"digests"`
	WALDigest  hashutil.Hash        `json:"walDigest"`
	WALAppends uint64               `json:"walAppends"`
	LastTs     uint64               `json:"lastTs"`
	Counter    uint64               `json:"counter"`
	Epoch      uint64               `json:"epoch,omitempty"`
	// Pending, when set, describes the post-install state of a version
	// install (flush/compaction) that was staged but not yet confirmed
	// durable when this blob was sealed. A crash inside the install window
	// — after the manifest rename made the new version durable, before the
	// post-install seal — recovers to a directory matching Pending rather
	// than the current triple; recovery accepts either. Without it that
	// window is unrecoverable: the engine's run set no longer matches the
	// sealed forest and a real crash would read as rollback.
	Pending *pendingState `json:"pending,omitempty"`
}

// pendingState is the forward half of a transition seal: the digest forest
// and WAL chain frontier the store will hold once the staged version
// install lands. WALDigest is in the post-install chain basis (a flush
// install deletes the frozen logs and rebases the chain onto the active
// log alone).
type pendingState struct {
	Digests    map[uint64]runDigest `json:"digests"`
	WALDigest  hashutil.Hash        `json:"walDigest"`
	WALAppends uint64               `json:"walAppends"`
	LastTs     uint64               `json:"lastTs"`
}

// commitState persists the sealed state blob claiming the NEXT counter
// value, then bumps the monotonic counter over the state fingerprint
// (§5.6.1). The order is load-bearing for crash consistency: the blob
// lands first, so a crash (or write failure) anywhere in the window leaves
// either the old blob with the still-unbumped counter or the new blob one
// ahead of it — both of which counter.Verify accepts ("claimed value must
// not lag the trusted counter") — and never a bumped counter pointing at a
// stale blob, which recovery would refuse as a false rollback. sealMu
// covers the whole write+bump: a concurrent seal (commit leader vs
// maintenance worker) must not let an older blob land after a newer
// counter value.
func (c *Store) commitState() {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	c.mu.Lock()
	digs := c.snap.Load().digests // consistent with the WAL frontier: swaps hold mu
	// Seal the DURABLE WAL frontier, never the append tip: with the
	// pipelined committer the tip may include records whose fsync is still
	// in flight, and a counter bound to them would refuse recovery from a
	// crash that (legitimately) tore them away.
	epoch := c.epoch.Load()
	fp := stateFingerprint(digs, c.durableDigest, epoch)
	ctr, _ := c.counter.Read()
	st := trustedState{
		Digests:    digs, // immutable; marshalled below without mutation
		WALDigest:  c.durableDigest,
		WALAppends: c.durableAppends,
		LastTs:     c.engine.AppliedTs(),
		Counter:    ctr + 1,
		Epoch:      epoch,
		Pending:    c.pendingSeal, // staged install (if any) rides in every seal
	}
	c.mu.Unlock()

	blob, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("core: trusted state marshal: %v", err))
	}
	sealed, err := sgx.Seal(c.sealKey, blob)
	if err != nil {
		panic(fmt.Sprintf("core: trusted state seal: %v", err))
	}
	written := false
	c.enclave.OCall(func() {
		written = writeSealedState(c.fs, sealed) == nil
	})
	if written {
		c.counter.Increment(fp)
	}
}

// writeSealedState installs a new TRUSTED.bin via tmp-write + atomic
// rename. The live blob is never truncated in place: a crash mid-seal
// (even one that tears the write) leaves either the old complete blob or
// the new one on disk, never a half-written blob that recovery would
// refuse as tampering.
func writeSealedState(fs vfs.FS, sealed []byte) error {
	const tmp = trustedStateName + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Append(sealed); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, trustedStateName)
}

// recoverTrustedState validates a recovered store against the sealed state
// and the monotonic counter, detecting tampering and rollback.
func (c *Store) recoverTrustedState(requireClean bool) error {
	replayDigest, replayCount := c.engine.WALReplayDigest()
	if !c.fs.Exists(trustedStateName) {
		if len(c.engine.Runs()) > 0 || replayCount > 0 {
			return fmt.Errorf("%w: data files exist without sealed state", ErrStateMissing)
		}
		return nil // fresh store
	}
	var sealed []byte
	var rerr error
	c.enclave.OCall(func() {
		f, err := c.fs.Open(trustedStateName)
		if err != nil {
			rerr = err
			return
		}
		defer f.Close()
		sealed = make([]byte, f.Size())
		if _, err := f.ReadAt(sealed, 0); err != nil && len(sealed) > 0 {
			rerr = err
		}
	})
	if rerr != nil {
		return fmt.Errorf("core: trusted state read: %w", rerr)
	}
	blob, err := sgx.Unseal(c.sealKey, sealed)
	if err != nil {
		return fmt.Errorf("%w: unseal: %v", ErrAuthFailed, err)
	}
	var st trustedState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("%w: trusted state decode: %v", ErrAuthFailed, err)
	}
	// Rollback check: the sealed counter value must not lag the trusted
	// hardware counter, and the bound fingerprint must match.
	fp := stateFingerprint(st.Digests, st.WALDigest, st.Epoch)
	if err := c.counter.Verify(st.Counter, fp); err != nil {
		return fmt.Errorf("%w: %v", ErrRollback, err)
	}
	// The engine's recovered runs must match a trusted digest set, and the
	// matching trusted WAL digest must be a prefix of the recovered chain.
	// The seal carries up to two acceptable states: the Current triple,
	// and — if a version install was staged when the seal was written —
	// the Pending post-install state. A crash inside the install window
	// (manifest renamed, post-install seal not yet durable) recovers to a
	// directory matching Pending; anything matching neither is rollback or
	// tampering.
	engineRuns := c.engine.Runs()
	try := func(digests map[uint64]runDigest, walDigest hashutil.Hash) (int, error) {
		if len(engineRuns) != len(digests) {
			return 0, fmt.Errorf("%w: %d runs recovered, %d digested", ErrRollback, len(engineRuns), len(digests))
		}
		for _, r := range engineRuns {
			if _, ok := digests[r.ID]; !ok {
				return 0, fmt.Errorf("%w: run %d not in sealed state", ErrRollback, r.ID)
			}
		}
		extra, err := c.engine.VerifyWALPrefix(walDigest)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrRollback, err)
		}
		return extra, nil
	}
	extra, err := try(st.Digests, st.WALDigest)
	if err != nil && st.Pending != nil {
		if pExtra, pErr := try(st.Pending.Digests, st.Pending.WALDigest); pErr == nil {
			// The staged install landed before the crash: adopt it.
			st.Digests = st.Pending.Digests
			st.WALDigest = st.Pending.WALDigest
			st.WALAppends = st.Pending.WALAppends
			if st.Pending.LastTs > st.LastTs {
				st.LastTs = st.Pending.LastTs
			}
			extra, err = pExtra, nil
		}
	}
	if err != nil {
		return err
	}
	if requireClean {
		if extra > 0 {
			return fmt.Errorf("%w: %d unverified WAL records after sealed state", ErrRollback, extra)
		}
		if torn := c.engine.WALTornRecords(); torn > 0 {
			return fmt.Errorf("%w: %d WAL records dropped from an uncommitted group", ErrRollback, torn)
		}
	}
	c.mu.Lock()
	c.snap.Store(&trustedView{digests: st.Digests})
	c.walDigest = replayDigest
	// All live logs (any recovered frozen ones included) feed the next
	// freeze together, so the "since last freeze" chain starts as the full
	// replayed chain.
	c.freshDigest = replayDigest
	c.walAppends = st.WALAppends + uint64(extra)
	// Everything replayed is on disk: the durable frontier starts at the
	// recovered tip (no groups are in flight).
	c.durableDigest = replayDigest
	c.durableFresh = replayDigest
	c.durableAppends = c.walAppends
	c.appendsAtBump = c.walAppends
	c.unverifiedReplay = extra
	c.mu.Unlock()
	c.epoch.Store(st.Epoch)
	c.engine.EnsureTs(st.LastTs)
	return nil
}

// ReplEpoch returns the store's sealed replication epoch — the fencing
// token attested into every checkpoint header and shipped group frame.
func (c *Store) ReplEpoch() uint64 { return c.epoch.Load() }

// Promote fences this store's replication history: it drains the commit
// pipeline (so the durable frontier covers every applied group), bumps the
// replication epoch, and seals the new epoch bound to the monotonic
// counter. Frames from the previous epoch are rejected by any follower of
// this store from here on, and a zombie leader of the OLD epoch can no
// longer feed a follower that adopted the new one. Returns the new epoch.
func (c *Store) Promote() (uint64, error) {
	var err error
	c.enclave.ECall(func() { err = c.engine.Sync(nil) })
	if err != nil {
		return c.epoch.Load(), fmt.Errorf("core: promote drain: %w", err)
	}
	e := c.epoch.Add(1)
	c.SealState()
	return e, nil
}

// UnverifiedReplay reports how many WAL records were recovered beyond the
// last sealed state (the §5.6.1 rollback window).
func (c *Store) UnverifiedReplay() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.unverifiedReplay
}

// ---------------------------------------------------------------------------
// Operations (each wrapped in an ECall: the trusted application calls into
// the enclave, §6.1)

// Sync is the durability barrier: it returns once every commit accepted
// before the call — synchronous or asynchronous — is fsynced to the
// untrusted log.
func (c *Store) Sync(ctx context.Context) error {
	var err error
	c.enclave.ECall(func() { err = c.engine.Sync(ctx) })
	return err
}

// GetAt returns the newest verified value with Ts ≤ tsq (the paper's
// GET(k, tsq)); ctx is checked before the enclave call — a point lookup is a
// single short ECall. It acquires an ephemeral read view — the same pinned
// (runs, digests) unit that backs Snapshot — runs the verified GET protocol
// against it, and releases it: point reads, iterators and snapshots share
// one implementation.
func (c *Store) GetAt(ctx context.Context, key []byte, tsq uint64) (Result, error) {
	if err := lsm.CtxErr(ctx); err != nil {
		return Result{}, err
	}
	var start time.Time
	if c.rec != nil {
		start = time.Now()
	}
	var res Result
	var err error
	c.enclave.ECall(func() {
		var v *readView
		v, err = c.acquireEphemeralView()
		if err != nil {
			return
		}
		defer v.release()
		res, err = v.getAt(key, tsq)
	})
	if c.rec != nil && err == nil {
		c.rec.GetE2E.ObserveSince(start)
	}
	return res, err
}

// maxRetries bounds view-acquisition retries when a concurrent compaction
// installs between the run snapshot and the digest load.
const maxRetries = 4

// resultFrom converts a verified record (tombstones become not-found).
func resultFrom(rec record.Record) Result {
	if rec.Kind == record.KindDelete {
		return Result{}
	}
	return Result{
		Key:   append([]byte(nil), rec.Key...),
		Value: append([]byte(nil), rec.Value...),
		Ts:    rec.Ts,
		Found: true,
	}
}

// Flush forces the memtable to disk through the authenticated flush path.
func (c *Store) Flush() error {
	var err error
	c.enclave.ECall(func() { err = c.engine.Flush() })
	return err
}

// Compact triggers an authenticated COMPACTION of level lvl into lvl+1.
func (c *Store) Compact(lvl int) error {
	var err error
	c.enclave.ECall(func() { err = c.engine.Compact(lvl) })
	return err
}

// BulkLoad populates an empty store, building the digest forest in one
// authenticated pass (YCSB load phase at scale).
func (c *Store) BulkLoad(recs []record.Record) error {
	var err error
	c.enclave.ECall(func() { err = c.engine.BulkLoad(recs) })
	return err
}

// Engine exposes the underlying engine (benchmarks and tests).
func (c *Store) Engine() *lsm.Store { return c.engine }

// Recorder returns the shard's observability recorder (nil when
// instrumentation is off); replication tailers and servers file their
// events through it.
func (c *Store) Recorder() *obs.Recorder { return c.rec }

// Enclave exposes the simulated enclave (stats inspection).
func (c *Store) Enclave() *sgx.Enclave { return c.enclave }

// DigestInfo is a read-only view of one run's trusted digest.
type DigestInfo struct {
	Root      string
	NumLeaves int
}

// RunDigests returns a snapshot of the trusted digest forest (run ID →
// root/leaf-count), primarily for tests and introspection tooling.
func (c *Store) RunDigests() map[uint64]DigestInfo {
	digs := c.snapshotDigests()
	out := make(map[uint64]DigestInfo, len(digs))
	for id, d := range digs {
		out[id] = DigestInfo{Root: d.Root.String(), NumLeaves: d.NumLeaves}
	}
	return out
}

// Close seals the final state and shuts the store down. The commit
// pipeline is drained first so the seal covers every accepted commit —
// after a clean Close, recovery finds zero unverified WAL records.
func (c *Store) Close() error {
	_ = c.engine.Sync(nil) // best effort: already-closed/failed pipelines still seal the durable frontier
	c.commitState()
	return c.engine.Close()
}
