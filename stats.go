package elsm

import (
	"fmt"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/sgx"
)

// Stats is a point-in-time snapshot of the store's engine and simulated-
// enclave activity, for observability and the benchmark harness.
// Store.ShardStats reports one per shard and Store.Stats their fold (counters
// sum; the busy gauge of the worker pool every shard shares reports the
// maximum).
//
// Each counter is declared, with its doc, once, in the layer that counts it.
// The three layers are internal packages, so their field docs are read in
// their source; in brief:
//
//   - lsm.Stats, the engine: flushes and compactions and their bytes, disk
//     bytes, WAL syncs, group commits and torn records, write stalls,
//     compaction debt, background and parallel compaction, pinned runs,
//     open snapshots, asynchronous commits in flight, and the untrusted
//     block cache.
//   - sgx.EnclaveStats, the simulated enclave (zero for ModeUnsecured):
//     ECalls, OCalls, CopiedBytes and EnclaveBytes.
//   - core.VerifyStats, verification (zero for ModeUnsecured): VerifiedGets,
//     ProofBytes, RunsProbed and the Merkle node cache's hits, misses and
//     hashes.
//
// Stats adds the shard count and the replication gauges. The counters are
// promoted fields, so a Stats composite literal cannot name them; read them
// as st.Flushes and so on. Every numeric field is a uint64 — by contract,
// TestStatsTableIsTotal holds the struct to it — so that one accessor type
// serves them all, and each has one row in statCounters below: its wire
// name, its fold rule and whether it is also reported per shard.
//
// On a sharded store each shard runs its own commit pipeline, so the
// aggregate WALSyncs counts N parallel fsync streams; a router snapshot pins
// every shard, so SnapshotsOpen counts N per open session. Shards share one
// enclave: the enclave counters are its totals, repeated in every per-shard
// entry.
type Stats struct {
	// Shards is the partition count these counters cover: the store's
	// shard count for the aggregate view, 1 for a per-shard entry.
	Shards uint64

	lsm.Stats
	sgx.EnclaveStats
	core.VerifyStats

	// Replication gauges (replica.go). On a follower, ReplLagGroups /
	// ReplLagBytes report how far the tail is behind the leader's head at
	// the last applied frame (summed across shards in the aggregate). On a
	// leader, FollowersConnected counts live tail streams across shards.
	ReplLagGroups      uint64
	ReplLagBytes       uint64
	FollowersConnected uint64
	// ReplReconnects counts tailer transport re-dials (summed across
	// shards); steady growth means a flaky link or a flapping leader.
	// ReplRebootstraps counts automatic checkpoint re-bootstraps after the
	// follower fell out of the leader's retained ring (repl.ErrBehind) —
	// whole-store events, repeated in every per-shard entry. ReplEpoch is
	// the store's sealed replication epoch (shard 0's on a sharded store);
	// it advances by one at each promotion and fences zombie leaders.
	ReplReconnects   uint64
	ReplRebootstraps uint64
	ReplEpoch        uint64
}

// foldRule says how a counter aggregates across shards.
type foldRule uint8

const (
	foldSum  foldRule = iota // counters and current-level gauges add up
	foldMax                  // the worker pool all shards share
	foldOnce                 // a value every shard repeats (shared enclave, whole-store events): shard 0's
)

// statCounter declares one numeric field of Stats.
type statCounter struct {
	wire     string   // name in STATS, elsm_<wire> in /metrics
	fold     foldRule // how Store.Stats aggregates it
	perShard bool     // also reported per shard (shardN_<wire>, elsm_<wire>{shard="N"})
	field    func(*Stats) *uint64
}

// statCounters is the one place a counter is declared: Store.Stats folds by
// it, the STATS verb and /metrics render from it (in this order), and
// TestStatsTableIsTotal holds it to every numeric field of Stats.
var statCounters = []statCounter{
	{"shards", foldSum, false, func(s *Stats) *uint64 { return &s.Shards }},
	{"flushes", foldSum, false, func(s *Stats) *uint64 { return &s.Flushes }},
	{"compactions", foldSum, false, func(s *Stats) *uint64 { return &s.Compactions }},
	{"background_compactions", foldSum, false, func(s *Stats) *uint64 { return &s.BackgroundCompactions }},
	{"bytes_flushed", foldSum, false, func(s *Stats) *uint64 { return &s.BytesFlushed }},
	{"bytes_compacted", foldSum, false, func(s *Stats) *uint64 { return &s.BytesCompacted }},
	{"records_dropped", foldSum, false, func(s *Stats) *uint64 { return &s.RecordsDropped }},
	{"manifest_updates", foldSum, false, func(s *Stats) *uint64 { return &s.ManifestUpdates }},
	{"disk_bytes", foldSum, true, func(s *Stats) *uint64 { return &s.DiskBytes }},
	{"wal_syncs", foldSum, true, func(s *Stats) *uint64 { return &s.WALSyncs }},
	{"group_commits", foldSum, true, func(s *Stats) *uint64 { return &s.GroupCommits }},
	{"grouped_records", foldSum, false, func(s *Stats) *uint64 { return &s.GroupedRecords }},
	{"wal_torn_records", foldSum, false, func(s *Stats) *uint64 { return &s.WALTornRecords }},
	{"flush_stall_nanos", foldSum, false, func(s *Stats) *uint64 { return &s.FlushStallNanos }},
	{"compaction_stall_nanos", foldSum, false, func(s *Stats) *uint64 { return &s.CompactionStallNanos }},
	{"compaction_debt_bytes", foldSum, true, func(s *Stats) *uint64 { return &s.CompactionDebtBytes }},
	{"parallel_compactions", foldSum, false, func(s *Stats) *uint64 { return &s.ParallelCompactions }},
	{"compaction_workers_busy", foldMax, false, func(s *Stats) *uint64 { return &s.CompactionWorkersBusy }},
	{"pinned_runs", foldSum, false, func(s *Stats) *uint64 { return &s.PinnedRuns }},
	{"snapshots_open", foldSum, true, func(s *Stats) *uint64 { return &s.SnapshotsOpen }},
	{"async_commits_in_flight", foldSum, true, func(s *Stats) *uint64 { return &s.AsyncCommitsInFlight }},
	{"block_cache_hits", foldSum, false, func(s *Stats) *uint64 { return &s.BlockCacheHits }},
	{"block_cache_misses", foldSum, false, func(s *Stats) *uint64 { return &s.BlockCacheMisses }},
	{"block_cache_frames_recycled", foldSum, false, func(s *Stats) *uint64 { return &s.BlockCacheFramesRecycled }},
	{"ecalls", foldOnce, false, func(s *Stats) *uint64 { return &s.ECalls }},
	{"ocalls", foldOnce, false, func(s *Stats) *uint64 { return &s.OCalls }},
	{"copied_bytes", foldOnce, false, func(s *Stats) *uint64 { return &s.CopiedBytes }},
	{"enclave_bytes", foldOnce, false, func(s *Stats) *uint64 { return &s.EnclaveBytes }},
	{"verified_gets", foldSum, false, func(s *Stats) *uint64 { return &s.VerifiedGets }},
	{"proof_bytes", foldSum, false, func(s *Stats) *uint64 { return &s.ProofBytes }},
	{"runs_probed", foldSum, false, func(s *Stats) *uint64 { return &s.RunsProbed }},
	{"verify_node_cache_hits", foldSum, false, func(s *Stats) *uint64 { return &s.VerifyNodeCacheHits }},
	{"verify_node_cache_misses", foldSum, false, func(s *Stats) *uint64 { return &s.VerifyNodeCacheMisses }},
	{"verify_node_hashes", foldSum, false, func(s *Stats) *uint64 { return &s.VerifyNodeHashes }},
	{"repl_lag_groups", foldSum, false, func(s *Stats) *uint64 { return &s.ReplLagGroups }},
	{"repl_lag_bytes", foldSum, false, func(s *Stats) *uint64 { return &s.ReplLagBytes }},
	{"followers_connected", foldSum, false, func(s *Stats) *uint64 { return &s.FollowersConnected }},
	{"repl_reconnects", foldSum, false, func(s *Stats) *uint64 { return &s.ReplReconnects }},
	{"repl_rebootstraps", foldOnce, false, func(s *Stats) *uint64 { return &s.ReplRebootstraps }},
	{"repl_epoch", foldOnce, false, func(s *Stats) *uint64 { return &s.ReplEpoch }},
}

// FoldStats aggregates per-shard entries by each counter's fold rule;
// CompactionDebtByLevel, the one non-scalar, sums element-wise. A caller
// that reports both the aggregate and the breakdown folds the one
// ShardStats result it shows, so the two cannot disagree.
func FoldStats(shards []Stats) Stats {
	var out Stats
	for i := range shards {
		for _, c := range statCounters {
			acc, v := c.field(&out), *c.field(&shards[i])
			switch {
			case c.fold == foldSum:
				*acc += v
			case c.fold == foldMax && v > *acc, c.fold == foldOnce && i == 0:
				*acc = v
			}
		}
		for lvl, debt := range shards[i].CompactionDebtByLevel {
			if lvl == len(out.CompactionDebtByLevel) {
				out.CompactionDebtByLevel = append(out.CompactionDebtByLevel, 0)
			}
			out.CompactionDebtByLevel[lvl] += debt
		}
	}
	return out
}

// Counters calls fn with the wire name and value of every counter the STATS
// verb and /metrics report, in table order and then the per-level compaction
// debt — or, with perShard, only those also reported shard by shard.
func (st Stats) Counters(perShard bool, fn func(name string, v uint64)) {
	for _, c := range statCounters {
		if c.perShard || !perShard {
			fn(c.wire, *c.field(&st))
		}
	}
	if !perShard {
		for lvl, debt := range st.CompactionDebtByLevel {
			fn(fmt.Sprintf("compaction_debt_level%d", lvl), debt)
		}
	}
}

// statsOf collects shard i's engine, enclave and verification counters.
func (set *engineSet) statsOf(i int) Stats {
	out := Stats{Shards: 1, Stats: set.shards[i].Engine().Stats()}
	if set.enclave != nil {
		out.EnclaveStats = set.enclave.Stats()
	}
	if cs := set.p2(i); cs != nil {
		out.VerifyStats = cs.VerifyStatsSnapshot()
		out.ReplEpoch = cs.ReplEpoch()
	}
	return out
}

// Stats returns current counters: ShardStats folded by each counter's rule
// (the one entry itself on an unsharded store). A ModeUnsecured store has
// no enclave and verifies nothing: those counters are zero.
func (s *Store) Stats() Stats { return FoldStats(s.ShardStats()) }

// ShardStats returns the per-shard counter breakdown, in shard order.
// Enclave fields repeat the shared enclave's totals in every entry, and
// ReplRebootstraps the store's; the replication gauges are each shard's own
// tailer's (follower) or hub's (leader).
func (s *Store) ShardStats() []Stats {
	set := s.eng.Load()
	rebootstraps := s.rebootstraps.Load()
	s.replMu.Lock()
	tailers, leaders := s.tailers, s.leaders
	s.replMu.Unlock()
	out := make([]Stats, len(set.shards))
	for i := range out {
		out[i] = set.statsOf(i)
		out[i].ReplRebootstraps = rebootstraps
		if i < len(tailers) {
			out[i].ReplLagGroups, out[i].ReplLagBytes = tailers[i].Lag()
			out[i].ReplReconnects = tailers[i].Reconnects()
		}
		if i < len(leaders) {
			out[i].FollowersConnected = uint64(leaders[i].Followers())
		}
	}
	return out
}
