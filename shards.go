package elsm

import (
	"fmt"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/sgx"
	"elsm/internal/shard"
	"elsm/internal/vfs"
)

// openSharded opens Options.Shards independent store instances — one per
// hash partition, each under its own subdirectory with its own WAL, digest
// forest and monotonic counter — and mounts them behind a shard.Router that
// re-exports the full verified API. One platform and one simulated enclave
// host every shard (the enclave is the machine's trusted runtime and the
// EPC a machine resource; concurrent per-shard ECalls do not serialize),
// while the roots of trust stay per shard: each instance seals and verifies
// its own counter-bound state, so recovery validates partitions
// independently and one shard's rollback never masks as another's.
func openSharded(opts Options) (*Store, error) {
	n := opts.Shards
	platform := opts.Platform
	if platform == nil {
		var err error
		platform, err = sgx.NewPlatform()
		if err != nil {
			return nil, err
		}
	}
	enclave := sgx.New(sgx.Params{EPCSize: opts.EPCSize, Cost: opts.cost()})
	// One verified-node cache per enclave, not per shard: its entries are
	// keyed by trusted root, so shards cannot disturb each other's. Only
	// ModeP2 verifies Merkle paths on reads.
	var nodes *merkle.NodeCache
	if opts.Mode == ModeP2 {
		nodes = core.NewNodeCache(enclave)
	}

	// One maintenance worker pool serves every shard: the machine has one
	// set of cores, so N shards sharing max(2, GOMAXPROCS/2) workers lets
	// ingest-heavy shards borrow capacity from quiet ones instead of N
	// pools oversubscribing the CPU.
	workers := opts.CompactionWorkers
	if workers <= 0 {
		workers = lsm.DefaultCompactionWorkers()
	}
	pool := lsm.NewWorkerPool(workers)

	// The parent location splits into per-shard sub-filesystems; a fully
	// in-memory store gives each shard its own private MemFS.
	baseFS := opts.FS
	if baseFS == nil && opts.Dir != "" {
		osfs, err := vfs.NewOS(opts.Dir)
		if err != nil {
			return nil, err
		}
		baseFS = osfs
	}

	hub, recs := opts.buildObs(n)

	shards := make([]core.KV, 0, n)
	closeAll := func() {
		for _, sh := range shards {
			sh.Close()
		}
	}
	for i := 0; i < n; i++ {
		var fs vfs.FS
		if baseFS != nil {
			sub, err := vfs.Sub(baseFS, shard.DirName(i))
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("elsm: shard %d filesystem: %w", i, err)
			}
			fs = sub
		}
		cfg := opts.coreConfig(fs)
		cfg.Enclave = enclave
		cfg.NodeCache = nodes
		cfg.Platform = platform
		cfg.Workers = pool
		if recs != nil {
			cfg.Obs = recs[i]
		}
		if len(opts.ShardCounters) == n {
			cfg.Counter = opts.ShardCounters[i]
		}
		kv, err := openMode(opts.Mode, cfg)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("elsm: open shard %d: %w", i, err)
		}
		shards = append(shards, kv)
	}
	router, err := shard.New(shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	router.SetObserver(hub)
	return newStore(opts, router, hub, recs)
}

// Shards reports the store's partition count (1 for a single-instance
// store).
func (s *Store) Shards() int {
	if r, ok := s.base().(*shard.Router); ok {
		return r.NumShards()
	}
	return 1
}

// Flush forces the memtable (every shard's, on a sharded store) to disk
// through the authenticated flush path — a testing and operations hook; the
// background maintenance worker flushes automatically in normal use.
func (s *Store) Flush() error {
	if f, ok := s.base().(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// WaitMaintenance blocks until all background flush/compaction work
// enqueued before the call has completed, on every shard — the fence tests
// and tooling use to observe a quiescent on-disk state.
func (s *Store) WaitMaintenance() error {
	switch kv := s.base().(type) {
	case *shard.Router:
		return kv.WaitMaintenance()
	case engined:
		return kv.Engine().WaitMaintenance()
	}
	return nil
}
