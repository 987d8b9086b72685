package core

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/blockcache"
	"elsm/internal/hashutil"
	"elsm/internal/lsm"
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
	// IterChunkKeys bounds how many distinct keys a streaming iterator
	// chunk covers per run (0 = DefaultIterChunkKeys).
	IterChunkKeys int
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
	// Caches shares one enclave's verified caches (NewVerifiedCaches) among
	// its stores — all shards of a process; nil gives this store its own.
	Caches *VerifiedCaches
	// Geometry, KeepVersions and DisableCompaction pass through to the
	// engine (zero = engine default).
	lsm.Geometry
	KeepVersions      int
	DisableCompaction bool

	// holdRebuild and rebuildTamper are test-only stand-ins for a slow or
	// malicious host during the filter rebuild Open starts
	// (startFilterRebuild): holdRebuild is called before each run's pass,
	// and may block it; rebuildTamper is called with every record a run's
	// stream hands over, before the enclave copies it (copied false) and
	// after (copied true).
	holdRebuild   func(runID uint64)
	rebuildTamper func(view record.Record, copied bool)
	// beginJob is a test-only observer of every maintenance job, called as
	// the job begins: the cost ledger tells flushes from compactions by it.
	beginJob func(lsm.CompactionInfo)
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
		Geometry:              cfg.Geometry,
		KeepVersions:          cfg.KeepVersions,
		DisableCompaction:     cfg.DisableCompaction,
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
	// walSeed derives, with sealKey, the key that tags this incarnation's
	// WAL groups (walKey); every seal carries it. Guarded by mu.
	walSeed []byte

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
	// contend with the committer, whose chain work holds mu.
	snap atomic.Pointer[trustedView]

	// mu guards the write-side trusted state (the WAL authenticator and its
	// bump bookkeeping) and serializes snapshot swaps. Readers never take
	// it.
	mu    sync.Mutex
	chain walChain

	// sealMu serializes commitState end to end (fingerprint, counter bump,
	// seal write): the maintenance worker and a commit leader may both
	// reach it concurrently, and an older sealed blob must never overwrite
	// a newer one after the counter moved on.
	sealMu sync.Mutex

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
	// untrusted host. getTamper is the same for a Get: it is called with the
	// views one run's lookup handed over, before the enclave copies them
	// (copied false) and after (copied true).
	scanTamper func(*runSpan)
	getTamper  func(views *lsm.RunViews, copied bool)

	// replayedPastSeal counts the WAL records recovery replayed past the
	// last sealed state, each group held to its tag (the rollback-window
	// records of §5.6.1).
	replayedPastSeal int
	// sealedAppends and sealedAt are the WALAppends and the time (unix
	// nanoseconds) of the last seal that succeeded (SealWindow).
	sealedAppends atomic.Uint64
	sealedAt      atomic.Int64

	// getStats are the per-Get counters of VerifyStats, in getStatStripes
	// stripes a line apart (stats).
	getStats []getStats
	// verify checks every proof the read paths are handed.
	verify verifier

	// rec is the shard's observability recorder (nil = instrumentation off).
	rec *obs.Recorder

	// scanPool and readPool are the free lists of scan-chunk scratch and of
	// the scratch of Gets and streams (see scanScratch, readScratch).
	scanPool scratchSlots[scanScratch]
	readPool scratchSlots[readScratch]

	// The filter rebuild Open starts (startFilterRebuild): Close sets
	// rebuildStop and waits for rebuildDone. The hooks are Config's.
	rebuildStop   atomic.Bool
	rebuildDone   sync.WaitGroup
	holdRebuild   func(runID uint64)
	rebuildTamper func(view record.Record, copied bool)
	beginJob      func(lsm.CompactionInfo) // Config's
}

// VerifyStats aggregates proof-verification work (§7: eLSM's proofs cover
// only levels L1..Li; prior work pays for every level on every GET).
// VerifiedGets, RunsProbed, RunsFiltered and RunsCached count point reads;
// ProofBytes counts the embedded-proof bytes copied into the enclave by point
// reads and scans alike (a scan copies at most four proofs per run per
// chunk).
type VerifyStats struct {
	VerifiedGets uint64
	ProofBytes   uint64
	// RunsProbed counts the runs answered with witnesses; RunsFiltered the
	// runs a Get skipped, with no witness, because the enclave's key filter
	// of the run ruled its key out; RunsCached the runs a Get answered from
	// the enclave's verified-record cache, with no witness.
	RunsProbed   uint64
	RunsFiltered uint64
	RunsCached   uint64
	// The verified-node cache at work: Merkle walks — a point read's
	// witnesses, a scan chunk's per-run range walk and its boundary
	// witnesses — that stopped at an already-verified cached node, walks
	// that went all the way to the trusted root, and the interior node
	// hashes those walks computed. Shards share one cache but count their
	// own walks.
	VerifyNodeCacheHits   uint64
	VerifyNodeCacheMisses uint64
	VerifyNodeHashes      uint64
}

// VerifyStatsSnapshot returns the accumulated counters.
func (c *Store) VerifyStatsSnapshot() VerifyStats {
	st := VerifyStats{
		VerifyNodeCacheHits:   c.verify.nodeHits.Load(),
		VerifyNodeCacheMisses: c.verify.nodeMisses.Load(),
		VerifyNodeHashes:      c.verify.nodeHashes.Load(),
	}
	for i := range c.getStats {
		g := &c.getStats[i]
		st.VerifiedGets += g.gets.Load()
		st.ProofBytes += g.proofBytes.Load()
		st.RunsProbed += g.runsProbed.Load()
		st.RunsFiltered += g.runsFiltered.Load()
		st.RunsCached += g.runsCached.Load()
	}
	return st
}

var _ KV = (*Store)(nil)

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
		holdRebuild:     cfg.holdRebuild,
		rebuildTamper:   cfg.rebuildTamper,
		beginJob:        cfg.beginJob,
	}
	c.snap.Store(&trustedView{digests: make(map[uint64]runDigest)})
	c.sealKey = platform.SealingKey(c.measurement)
	c.rec = cfg.Obs
	caches := cfg.Caches
	if caches == nil {
		caches = NewVerifiedCaches(enclave)
	}
	c.verify.nodes, c.verify.records = caches.nodes, caches.records
	// Like the verified caches, the scan and Get scratch are a fixed budget of
	// protected memory charged once, for as long as the enclave lasts.
	c.scanPool = make(scratchSlots[scanScratch], scanScratchSlots)
	c.readPool = make(scratchSlots[readScratch], readScratchSlots)
	c.getStats = make([]getStats, getStatStripes)
	enclave.Alloc(scanScratchSlots*scanScratchBytes + readScratchSlots*readScratchBytes)
	opts.Enclave = enclave
	opts.Listener = &authListener{c: c}
	if cfg.CacheSize > 0 {
		// P2 places the read buffer OUTSIDE the enclave (§4.2).
		opts.Cache = blockcache.New(cfg.CacheSize, nil)
	}
	// The sealed state is read before the engine opens: the engine's one
	// replay of the log hands every group to the listener, and the chain
	// must know which sealed digests to look for as it goes.
	st, err := c.loadTrustedState()
	if err != nil {
		return nil, err
	}
	engine, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	c.engine = engine
	replayed, err := c.recoverTrustedState(st)
	// Every Open seals before it accepts a write, under a fresh WAL key
	// (rekey). A fresh store must: recovery refuses data files without
	// sealed state. A recovered one must too: a group it lost in the crash
	// — torn, never synced, but kept by the host — carries a valid tag for
	// the position the next group takes, and only a new key tells the two
	// apart. Before the rekey it flushes every group it replayed, and waits
	// for that flush's install: the install deletes the logs that hold them,
	// so every live group always carries the sealed seed's key, and recovery
	// can check the tag of every group, those before the seal included.
	if err == nil && replayed {
		err = engine.FlushMemtable()
	}
	if err == nil {
		err = c.rekey()
	}
	if err != nil {
		engine.Close()
		return nil, err
	}
	c.startFilterRebuild()
	return c, nil
}

// trustedView is an immutable snapshot of the trusted per-run state: the
// digest forest, and the enclave's key filter of each run that has one. The
// maps must never be mutated after the view is published via snap; writers
// (compactionJob.Installed, recovery, the filter rebuild) publish fresh
// copies under c.mu. Filters are derived state: they are never sealed, and a
// run without one is read through its proofs alone.
type trustedView struct {
	digests map[uint64]runDigest
	filters map[uint64]runFilter
	// prev is the forest this view's install replaced. The engine publishes
	// the install's read version only after the swap, so a reader may pin the
	// version before it and load this view: prev covers that version's runs.
	prev map[uint64]runDigest
}

// snapshotDigests returns the current immutable digest view — a single
// atomic load, no lock, no copy. Callers must treat the map as read-only.
func (c *Store) snapshotDigests() map[uint64]runDigest {
	return c.snap.Load().digests
}

// stateFingerprint is the fingerprint of a sealed trusted state the
// monotonic counter binds (hashutil.StateFingerprint): the digest forest,
// each run's level with it, the WAL's base and durable frontier, and the
// replication epoch. Binding the epoch means a rollback of the sealed blob
// to a pre-promotion value trips the counter check exactly like a rolled
// back frontier would.
func stateFingerprint(st *trustedState) [32]byte {
	runs := make([]hashutil.RunRoot, 0, len(st.Digests))
	for id, d := range st.Digests {
		runs = append(runs, hashutil.RunRoot{ID: id, Level: d.Level, Leaves: d.NumLeaves, Root: d.Root})
	}
	return hashutil.StateFingerprint(runs, st.WALBase, st.WALAppends, st.Epoch)
}

// trustedState is the sealed enclave state persisted to the untrusted FS.
// WALBase is the lifetime append count where the oldest live log starts and
// WALAppends the durable frontier: recovery checks every group of the live
// logs at the position it counts from WALBase, and finds the frontier met.
type trustedState struct {
	// Format is stateFormat; a blob of an earlier build carries none.
	Format     int                  `json:"format"`
	Digests    map[uint64]runDigest `json:"digests"`
	WALBase    uint64               `json:"walBase"`
	WALAppends uint64               `json:"walAppends"`
	LastTs     uint64               `json:"lastTs"`
	Counter    uint64               `json:"counter"`
	Epoch      uint64               `json:"epoch,omitempty"`
	// WALSeed derives the key that tags every live WAL group.
	WALSeed []byte `json:"walSeed,omitempty"`
	// Pending, when set, describes the post-install state of a version
	// install (flush/compaction) that was staged but not yet confirmed
	// durable when this blob was sealed. A crash inside the install window
	// — after the manifest rename made the new version durable, before the
	// post-install seal — recovers to a directory matching Pending rather
	// than the current state; recovery accepts either. Without it that
	// window is unrecoverable: the engine's run set no longer matches the
	// sealed forest and a real crash would read as rollback.
	Pending *pendingState `json:"pending,omitempty"`
}

// pendingState is the forward half of a transition seal: the digest forest
// and WAL extent the store will hold once the staged version install lands
// (a flush install deletes the frozen logs, so its WALBase is where the
// active log starts).
type pendingState struct {
	Digests    map[uint64]runDigest `json:"digests"`
	WALBase    uint64               `json:"walBase"`
	WALAppends uint64               `json:"walAppends"`
	LastTs     uint64               `json:"lastTs"`
}

// commitState seals the current trusted state and binds it to the
// monotonic counter (§5.6.1; see writeTrustedState for the crash order).
// sealMu covers the whole write+bump: a concurrent seal (commit worker vs
// maintenance worker) must not let an older blob land after a newer
// counter value. Only Open (rekey) and Close must see the error: a failed
// seal leaves the previous blob and counter value, which recovery still
// accepts, and the next seal tries again.
func (c *Store) commitState() error {
	c.sealMu.Lock()
	defer c.sealMu.Unlock()
	c.mu.Lock()
	// Seal the DURABLE WAL frontier, never the append tip: the tip may
	// include records of a group whose fsync is still in flight, and a
	// counter bound to them would refuse recovery from a crash that
	// (legitimately) tore them away.
	st := trustedState{
		Format:     stateFormat,
		Digests:    c.snap.Load().digests, // consistent with the base: swaps hold mu
		WALBase:    c.chain.base,
		WALAppends: c.chain.durable,
		LastTs:     c.engine.AppliedTs(),
		Epoch:      c.epoch.Load(),
		WALSeed:    c.walSeed,
		Pending:    c.pendingSeal, // staged install (if any) rides in every seal
	}
	c.mu.Unlock()
	if err := writeTrustedState(c.fs, c.enclave, c.sealKey, c.counter, st); err != nil {
		return err
	}
	c.sealedAppends.Store(st.WALAppends)
	c.sealedAt.Store(time.Now().UnixNano())
	return nil
}

// SealWindow reports what a host could still drop back to the last seal
// that succeeded (§5.6.1's rollback window): the records appended since it,
// and its age.
func (c *Store) SealWindow() (unsealedAppends uint64, age time.Duration) {
	c.mu.Lock()
	appends := c.chain.appends
	c.mu.Unlock()
	return appends - c.sealedAppends.Load(), time.Since(time.Unix(0, c.sealedAt.Load()))
}

// rekey starts a new incarnation: a fresh random seed keys the WAL tags of
// every group from now on, and the seal that carries it is written before
// any such group. Open calls it only when no live log holds a group, since
// recovery checks every live group under the sealed seed's key. A failed
// seal write fails it: groups tagged under a seed no seal names would fail
// their tags at the next recovery.
func (c *Store) rekey() error {
	seed := make([]byte, 32)
	if _, err := rand.Read(seed); err != nil {
		return fmt.Errorf("core: wal key seed: %w", err)
	}
	c.mu.Lock()
	c.walSeed = seed
	c.chain.keyed(c.sealKey, seed)
	c.mu.Unlock()
	var err error
	c.enclave.ECall(func() { err = c.commitState() })
	return err
}

// writeTrustedState is the one way the trusted state is sealed to a file:
// st claims the counter's NEXT value, is sealed under key and installed as
// TRUSTED.bin by vfs.WriteFile (tmp write, fsync, atomic rename), and only
// then is the counter bumped over the state's fingerprint. The order is
// load-bearing for crash consistency: a crash (or write failure) anywhere
// in the window leaves either the old blob with the still-unbumped counter
// or the new blob one ahead of it — both of which counter.Verify accepts
// ("claimed value must not lag the trusted counter") — and never a bumped
// counter pointing at a stale blob, which recovery would refuse as a false
// rollback. A torn write leaves the old blob or the new one, never half of
// one that would read as tampering.
func writeTrustedState(fs vfs.FS, e *sgx.Enclave, key [32]byte, ctr *sgx.MonotonicCounter, st trustedState) error {
	cur, _ := ctr.Read()
	st.Counter = cur + 1
	blob, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("core: trusted state marshal: %w", err)
	}
	sealed, err := sgx.Seal(key, blob)
	if err != nil {
		return fmt.Errorf("core: trusted state seal: %w", err)
	}
	e.OCall(func() { err = vfs.WriteFile(fs, trustedStateName, sealed) })
	if err != nil {
		return fmt.Errorf("core: trusted state write: %w", err)
	}
	ctr.Increment(stateFingerprint(&st))
	return nil
}

// loadTrustedState reads TRUSTED.bin whole, if there is one, unseals it
// and checks it against the monotonic counter — the sealed counter value
// must not lag the trusted hardware counter, and the bound fingerprint must
// match — before the engine opens. A blob that does not unseal or decode is
// ErrAuthFailed: the host altered it. It then keys the chain with the sealed
// seed and arms it to check, during the engine's replay, every group's tag
// from the base of each sealed state recovery may adopt: the Current one
// and, if a version install was staged when the seal was written, the
// Pending one. Nil means a store that was never sealed.
func (c *Store) loadTrustedState() (*trustedState, error) {
	if !c.fs.Exists(trustedStateName) {
		return nil, nil
	}
	sealed, err := c.readFile(trustedStateName)
	if err != nil {
		return nil, fmt.Errorf("core: trusted state read: %w", err)
	}
	blob, err := sgx.Unseal(c.sealKey, sealed)
	if err != nil {
		return nil, fmt.Errorf("%w: unseal: %v", ErrAuthFailed, err)
	}
	var st trustedState
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("%w: trusted state decode: %v", ErrAuthFailed, err)
	}
	if err := checkDigestFormat(st.Format, st.Digests); err != nil {
		return nil, err
	}
	if p := st.Pending; p != nil {
		if err := checkDigestFormat(st.Format, p.Digests); err != nil {
			return nil, err
		}
	}
	if err := c.counter.Verify(st.Counter, stateFingerprint(&st)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRollback, err)
	}
	c.mu.Lock()
	c.walSeed = st.WALSeed
	c.chain.keyed(c.sealKey, st.WALSeed)
	c.chain.seek = []walSeek{{base: st.WALBase, frontier: st.WALAppends}}
	if p := st.Pending; p != nil {
		c.chain.seek = append(c.chain.seek, walSeek{base: p.WALBase, frontier: p.WALAppends})
	}
	c.mu.Unlock()
	return &st, nil
}

// readFile reads one untrusted file whole, across the enclave boundary.
func (c *Store) readFile(name string) (data []byte, err error) {
	c.enclave.OCall(func() { data, err = vfs.ReadFile(c.fs, name) })
	return data, err
}

// recoverTrustedState validates the recovered engine against the sealed
// state st (nil: none), detecting tampering and rollback: the engine's runs
// must match a sealed digest set, and the replay of the live logs must pass
// the matching state's verdict (walChain.verdict). It reports whether the
// replay found any group.
func (c *Store) recoverTrustedState(st *trustedState) (bool, error) {
	engineRuns := c.engine.Runs() // the engine's lock comes before c.mu
	c.mu.Lock()
	defer c.mu.Unlock()
	replayed := c.chain.appends
	if st == nil {
		if len(engineRuns) > 0 || replayed > 0 {
			return false, fmt.Errorf("%w: data files exist without sealed state", ErrStateMissing)
		}
		c.chain.recovered(0, 0)
		return false, nil // fresh store
	}
	// The seal carries up to two acceptable states: the Current one, and —
	// if a version install was staged when the seal was written — the
	// Pending post-install state. A crash inside the install window
	// (manifest renamed, post-install seal not yet durable) recovers to a
	// directory matching Pending; anything matching neither is rollback or
	// tampering.
	try := func(digests map[uint64]runDigest, seek walSeek) (uint64, error) {
		if len(engineRuns) != len(digests) {
			return 0, fmt.Errorf("%w: %d runs recovered, %d digested", ErrRollback, len(engineRuns), len(digests))
		}
		if err := checkRunOrder(engineRuns, digests); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrRollback, err)
		}
		return c.chain.verdict(seek)
	}
	extra, err := try(st.Digests, c.chain.seek[0])
	if err != nil && st.Pending != nil {
		if pExtra, pErr := try(st.Pending.Digests, c.chain.seek[1]); pErr == nil {
			// The staged install landed before the crash: adopt it.
			st.Digests = st.Pending.Digests
			st.WALBase = st.Pending.WALBase
			if st.Pending.LastTs > st.LastTs {
				st.LastTs = st.Pending.LastTs
			}
			extra, err = pExtra, nil
		}
	}
	if err != nil {
		return false, err
	}
	c.snap.Store(&trustedView{digests: st.Digests})
	// Everything replayed is on disk: the durable frontier starts after the
	// last replayed group (no groups are in flight).
	c.chain.recovered(st.WALBase, st.WALBase+replayed)
	c.replayedPastSeal = int(extra)
	c.epoch.Store(st.Epoch)
	c.engine.EnsureTs(st.LastTs)
	return replayed > 0, nil
}

// ErrOldStateFormat reports a sealed state or a checkpoint of another
// format: one whose run roots hash each leaf as a wrapper around its chain
// head, or whose run digests carry no level. Such a forest cannot be held to
// the runs on disk or to the order a read visits them in, so the store
// refuses it as a format it does not read, not as an attack.
var ErrOldStateFormat = errors.New("core: sealed state of an earlier format")

// stateFormat is the format of the sealed state and the checkpoint header,
// and so of the run roots they hold: a key's Merkle leaf is its version-chain
// head (hashutil.LeafHash). Builds before it wrote no format, and their roots
// hash every leaf under a key-binding wrapper.
const stateFormat = 1

// checkDigestFormat refuses a forest of another format, or one in which a
// run has no level: no run is ever installed at level 0, so only a format
// before levels leaves one there. The forest comes from a sealed blob or an
// attested checkpoint header, which the host cannot forge.
func checkDigestFormat(format int, digests map[uint64]runDigest) error {
	if format != stateFormat {
		return fmt.Errorf("%w: format %d, this build reads %d", ErrOldStateFormat, format, stateFormat)
	}
	for id, d := range digests {
		if d.Level == 0 {
			return fmt.Errorf("%w: run %d has no level", ErrOldStateFormat, id)
		}
	}
	return nil
}

// checkRunOrder holds the runs an engine opened with — its levels from the
// untrusted manifest, newest first within each — to a sealed forest: every
// run is in the forest at its sealed level, and within a level the IDs
// strictly decrease. A read takes the first version of a key it finds in
// that order, so a host that swapped two levels or reordered a level's runs
// would otherwise serve an overwritten value as the newest.
func checkRunOrder(runs []lsm.RunRef, digests map[uint64]runDigest) error {
	for i, r := range runs {
		d, ok := digests[r.ID]
		switch {
		case !ok:
			return fmt.Errorf("run %d not in sealed state", r.ID)
		case d.Level != r.Level:
			return fmt.Errorf("run %d at level %d, sealed at level %d", r.ID, r.Level, d.Level)
		case i > 0 && runs[i-1].Level == r.Level && runs[i-1].ID <= r.ID:
			return fmt.Errorf("level %d lists run %d before run %d", r.Level, runs[i-1].ID, r.ID)
		}
	}
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

// ReplayedPastSeal reports how many WAL records recovery replayed past the
// last sealed state (the §5.6.1 rollback window), every group of them
// carrying a tag this store wrote.
func (c *Store) ReplayedPastSeal() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayedPastSeal
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
// (runs, digests) unit that backs Snapshot, on the stack — runs the verified
// GET protocol against it, and releases it: point reads, iterators and
// snapshots share one implementation. The key is hashed once, here
// (keyHash), for everything the Get looks up by it.
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
		view := readView{c: c}
		if err = c.pinView(&view, false); err != nil {
			return
		}
		defer view.release()
		res, err = view.getAt(key, keyHash(key), tsq)
	})
	if c.rec != nil && err == nil {
		c.rec.GetE2E.ObserveSince(start)
	}
	return res, err
}

// maxRetries bounds view-acquisition retries when a concurrent compaction
// installs between the run snapshot and the digest load.
const maxRetries = 4

// resultFrom copies a verified record into a Result, key and value in one
// allocation (tombstones become not-found).
func resultFrom(rec record.Record) Result {
	if rec.Kind == record.KindDelete {
		return Result{}
	}
	k := len(rec.Key)
	kv := make([]byte, k+len(rec.Value))
	copy(kv, rec.Key)
	copy(kv[k:], rec.Value)
	return Result{Key: kv[:k:k], Value: kv[k:], Ts: rec.Ts, Found: true}
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
// after a clean Close, recovery replays no WAL record past the seal. If the
// final seal fails, the store still shuts down and Close returns the seal's
// error: recovery will replay the records past the previous seal.
func (c *Store) Close() error {
	c.stopFilterRebuild()
	_ = c.engine.Sync(nil) // best effort: already-closed/failed pipelines still seal the durable frontier
	serr := c.commitState()
	err := c.engine.Close()
	if serr != nil {
		err = fmt.Errorf("core: final seal: %w", serr)
	}
	c.mu.Lock()
	for _, f := range c.snap.Load().filters {
		f.mem.Free()
	}
	c.mu.Unlock()
	return err
}
