package elsm

import (
	"fmt"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/obs"
	"elsm/internal/sgx"
	"elsm/internal/shard"
	"elsm/internal/vfs"
)

// engine is what both modes' stores offer the facade beyond the call
// surface: the flush hook and the LSM engine underneath.
type engine interface {
	core.KV
	Flush() error
	Engine() *lsm.Store
}

// engineSet is one open store: N ≥ 1 shards and what they share. It is
// immutable once openShards returns it; a follower re-bootstrap builds a new
// one and swaps Store.eng, so a reader never sees a half-replaced set.
type engineSet struct {
	kv      core.KV         // shards[0], or the router over all of them when N > 1
	shards  []engine        // in shard order
	recs    []*obs.Recorder // per-shard latency recorders; nil when uninstrumented
	enclave *sgx.Enclave    // the one enclave hosting every shard; nil for ModeUnsecured
}

// shardEnv yields what is shard i's alone: its filesystem — the store's
// root for a single shard, "shard-NN/" under it otherwise — and its
// monotonic counter (nil: a fresh one). A nil parent filesystem stays nil,
// giving each shard a private in-memory one.
func (o Options) shardEnv(i int) (fs vfs.FS, ctr *sgx.MonotonicCounter, err error) {
	fs = o.FS
	if fs != nil && o.Shards > 1 {
		if fs, err = vfs.Sub(o.FS, shard.DirName(i)); err != nil {
			return nil, nil, fmt.Errorf("elsm: shard %d filesystem: %w", i, err)
		}
	}
	if len(o.ShardCounters) > 0 {
		ctr = o.ShardCounters[i]
	}
	return fs, ctr, nil
}

// openShards opens the Options.Shards independent store instances of
// resolved options — one per hash partition, each with its own WAL, digest
// forest and monotonic counter — and mounts them behind a shard.Router when
// there is more than one. One platform and one enclave host every
// shard (the enclave is the machine's trusted runtime and the EPC a machine
// resource; concurrent per-shard ECalls do not serialize), while the roots
// of trust stay per shard: each instance seals and verifies its own
// counter-bound state, so recovery validates partitions independently and
// one shard's rollback never masks as another's. hub is the observability
// hub the per-shard recorders report to (nil: uninstrumented).
func openShards(o Options, hub *obs.Observer) (*engineSet, error) {
	set := &engineSet{}
	// One verified-node cache per enclave, not per shard: its entries are
	// keyed by trusted root, so shards cannot disturb each other's.
	var nodes *merkle.NodeCache
	if o.Mode == ModeP2 {
		set.enclave = sgx.New(sgx.Params{})
		nodes = core.NewNodeCache(set.enclave)
	}
	// One maintenance worker pool serves every shard: the machine has one
	// set of cores, so N shards sharing max(2, GOMAXPROCS/2) workers lets
	// ingest-heavy shards borrow capacity from quiet ones instead of N
	// pools oversubscribing the CPU.
	workers := o.CompactionWorkers
	if workers <= 0 {
		workers = lsm.DefaultCompactionWorkers()
	}
	pool := lsm.NewWorkerPool(workers)

	fail := func(err error) (*engineSet, error) {
		for _, sh := range set.shards {
			sh.Close()
		}
		return nil, err
	}
	kvs := make([]core.KV, 0, o.Shards)
	for i := 0; i < o.Shards; i++ {
		fs, ctr, err := o.shardEnv(i)
		if err != nil {
			return fail(err)
		}
		cfg := o.coreConfig(fs)
		cfg.Counter = ctr
		cfg.Enclave = set.enclave
		cfg.NodeCache = nodes
		cfg.Workers = pool
		if hub != nil {
			cfg.Obs = obs.NewRecorder(i, hub)
			set.recs = append(set.recs, cfg.Obs)
		}
		sh, err := openShard(o.Mode, cfg)
		if err != nil {
			return fail(fmt.Errorf("elsm: open shard %d: %w", i, err))
		}
		set.shards, kvs = append(set.shards, sh), append(kvs, sh)
	}
	set.kv = kvs[0]
	if o.Shards > 1 {
		router, err := shard.New(kvs)
		if err != nil {
			return fail(err)
		}
		router.SetObserver(hub)
		set.kv = router
	}
	return set, nil
}

// openShard opens one shard of the given (validated) design.
func openShard(mode Mode, cfg core.Config) (engine, error) {
	if mode == ModeUnsecured {
		return core.OpenUnsecured(cfg)
	}
	return core.Open(cfg)
}

// p2 returns shard i as the ModeP2 store it is, or nil in ModeUnsecured
// — what replication, the epoch and the verification counters need.
func (set *engineSet) p2(i int) *core.Store {
	cs, _ := set.shards[i].(*core.Store)
	return cs
}

// Shards reports the store's partition count (1 for an unsharded store).
func (s *Store) Shards() int { return len(s.eng.Load().shards) }

// Flush forces every shard's memtable to disk through the authenticated
// flush path — a testing and operations hook; the background maintenance
// worker flushes automatically in normal use.
func (s *Store) Flush() error {
	for _, sh := range s.eng.Load().shards {
		if err := sh.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// WaitMaintenance blocks until all background flush/compaction work
// enqueued before the call has completed, on every shard — the fence tests
// and tooling use to observe a quiescent on-disk state.
func (s *Store) WaitMaintenance() error {
	for _, sh := range s.eng.Load().shards {
		if err := sh.Engine().WaitMaintenance(); err != nil {
			return err
		}
	}
	return nil
}
