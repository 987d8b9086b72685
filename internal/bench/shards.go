package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/sgx"
	"elsm/internal/shard"
	"elsm/internal/vfs"
)

// The shards ablation measures what hash partitioning buys on the durable
// write path: N shards run N independent group-commit pipelines — N WAL
// fsync streams in flight at once — where a single instance serializes
// every commit group through one. Storage with a real fsync cost and a
// bounded group size make the serialization visible (with unbounded groups,
// one giant group per fsync hides it — which is itself a finding the
// ablation's shards=1 row documents). Writers drive the pipelined
// CommitAsync path with a final all-shards Sync barrier, so the clock
// covers time to FULL durability of every record while the per-shard
// pipelines stay saturated.
const (
	shardSyncDelay = 200 * time.Microsecond
	shardBatchOps  = 4 // ops per writer commit; keys spread across shards
	shardWriters   = 8
	// shardInflight bounds each writer's unresolved async commits — the
	// client-side pipeline depth.
	shardInflight = 16
	// shardGroupMaxOps bounds one commit group, as production deployments
	// do to cap commit latency and group memory: a single instance must
	// serialize ⌈records/8⌉ fsyncs through one WAL, while N shards split
	// the same fsync budget across N parallel streams.
	shardGroupMaxOps = 8
)

// shardSweep is the ablation's X axis: the shard count.
var shardSweep = []int{1, 2, 4}

// openShardedBench builds an n-shard router of eLSM-P2 stores on
// sync-delayed storage, the way elsm.Open(Options{Shards: n}) wires it:
// one shared enclave, a private filesystem per shard.
func (c Config) openShardedBench(n int) (*shard.Router, error) {
	enclave := sgx.New(sgx.Params{})
	nodes := core.NewNodeCache(enclave)
	shards := make([]core.KV, n)
	for i := range shards {
		s, err := core.Open(core.Config{
			FS:                vfs.NewSlowSync(vfs.NewMem(), shardSyncDelay),
			Enclave:           enclave,
			NodeCache:         nodes,
			GroupCommitMaxOps: shardGroupMaxOps,
			MemtableSize:      c.paperMB(4),
			TableFileSize:     c.paperMB(4),
			LevelBase:         int64(c.paperMB(10)),
			MaxLevels:         7,
			KeepVersions:      1,
			CounterInterval:   4096,
			MmapReads:         true,
		})
		if err != nil {
			for _, open := range shards[:i] {
				open.Close()
			}
			return nil, err
		}
		shards[i] = s
	}
	return shard.New(shards)
}

// shardPoint measures one shard count: shardWriters goroutines pump
// batches of shardBatchOps records through CommitAsync, each bounding its
// own unresolved futures at shardInflight, and the run closes with an
// all-shards Sync barrier — both rows pay for the same guarantee (every
// record durable) and the clock covers the barrier. Reports kops/sec of
// durable records and WAL fsyncs per 1000 records (summed across shards:
// the parallel streams spend the same fsync budget while finishing in a
// fraction of the wall time; that is the point).
func (c Config) shardPoint(n, totalOps int) (kopsPerSec, fsyncsPerK float64, err error) {
	r, err := c.openShardedBench(n)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()

	ctx := context.Background()
	perWriter := totalOps / shardWriters
	if perWriter == 0 {
		perWriter = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, shardWriters)
	start := time.Now()
	for w := 0; w < shardWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := []byte("shard-ablation-value-0123456789")
			var inflight []*lsm.CommitFuture
			for i := 0; i < perWriter; i++ {
				ops := make([]core.BatchOp, shardBatchOps)
				for j := range ops {
					ops[j] = core.BatchOp{
						Key:   []byte(fmt.Sprintf("w%02d-%06d-%d", w, i, j)),
						Value: val,
					}
				}
				fut, serr := r.CommitAsync(ctx, ops)
				if serr != nil {
					errCh <- serr
					return
				}
				if _, serr = fut.Ts(ctx); serr != nil {
					errCh <- serr
					return
				}
				inflight = append(inflight, fut)
				if len(inflight) >= shardInflight {
					if _, serr = inflight[0].Wait(ctx); serr != nil {
						errCh <- serr
						return
					}
					inflight = inflight[1:]
				}
			}
			for _, fut := range inflight {
				if _, serr := fut.Wait(ctx); serr != nil {
					errCh <- serr
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// The durability barrier: acknowledgments are not durable until Sync
	// returns, so the clock covers it.
	if serr := r.Sync(ctx); serr != nil {
		return 0, 0, serr
	}
	elapsed := time.Since(start)
	close(errCh)
	if werr := <-errCh; werr != nil {
		return 0, 0, werr
	}

	records := float64(perWriter * shardWriters * shardBatchOps)
	var syncs uint64
	for i := 0; i < r.NumShards(); i++ {
		if cs, ok := r.Shard(i).(*core.Store); ok {
			syncs += cs.Engine().Stats().WALSyncs
		}
	}
	kopsPerSec = records / elapsed.Seconds() / 1e3
	fsyncsPerK = float64(syncs) / records * 1000
	return kopsPerSec, fsyncsPerK, nil
}

// AblationShards quantifies the router's scaling: durable put throughput
// vs shard count at a fixed writer count, on storage with a real fsync
// cost and a bounded commit group size. Expected shape: throughput grows
// with shards (≥2x at 4 shards) because the per-shard committers fsync in
// parallel, while fsyncs-per-1k-records grows too — the router trades
// more, smaller fsyncs for wall-clock parallelism.
func AblationShards(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name: "Ablation: shards",
		Caption: fmt.Sprintf("durable put throughput vs shard count, %d writers, batches of %d, group cap %d, %v fsync",
			shardWriters, shardBatchOps, shardGroupMaxOps, shardSyncDelay),
		XLabel: "shards",
		Series: seriesOrder("kops/s", "speedup vs 1 shard", "fsync/1k"),
	}
	var base float64
	for _, n := range shardSweep {
		cfg.logf("AblationShards shards=%d", n)
		kops, fsyncs, err := cfg.shardPoint(n, cfg.Ops)
		if err != nil {
			return t, fmt.Errorf("shards ablation (%d shards): %w", n, err)
		}
		if n == shardSweep[0] {
			base = kops
		}
		speedup := 0.0
		if base > 0 {
			speedup = kops / base
		}
		cfg.logf("    %d shards: %.1f kops/s (%.2fx, %.1f fsync/1k)", n, kops, speedup, fsyncs)
		row := Row{X: fmt.Sprintf("%d", n), Series: map[string]float64{
			"kops/s":             kops,
			"speedup vs 1 shard": speedup,
			"fsync/1k":           fsyncs,
		}}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
