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
// Every numeric field is a uint64 — by contract, TestStatsTableIsTotal holds
// the struct to it — so that one accessor type serves them all, and each is
// declared once more, in statCounters below: its wire name, its fold rule,
// whether it is also reported per shard and where a shard's value is read.
type Stats struct {
	// Shards is the partition count these counters cover: the store's
	// shard count for the aggregate view, 1 for a per-shard entry.
	Shards uint64

	// Mode-independent engine counters.
	Flushes         uint64
	Compactions     uint64
	BytesFlushed    uint64
	BytesCompacted  uint64
	RecordsDropped  uint64
	ManifestUpdates uint64
	DiskBytes       uint64

	// Group-commit pipeline counters. WALSyncs/GroupCommits stay far below
	// the committed-operation count when concurrent writers coalesce;
	// GroupedRecords/GroupCommits is the mean group size. On a sharded
	// store each shard runs its own pipeline, so the aggregate counts N
	// parallel fsync streams.
	WALSyncs       uint64
	GroupCommits   uint64
	GroupedRecords uint64
	// WALTornRecords counts records dropped at recovery because their
	// commit group never completed (crash mid-append).
	WALTornRecords uint64

	// Background-maintenance counters. FlushStallNanos is writer time lost
	// waiting for a lagging background flush; CompactionStallNanos is the
	// share of it attributable to a compaction occupying the worker;
	// BackgroundCompactions counts worker-scheduled level merges;
	// PinnedRuns is the current number of run pins (snapshot readers,
	// in-flight merges) beyond version membership.
	FlushStallNanos       uint64
	CompactionStallNanos  uint64
	BackgroundCompactions uint64
	PinnedRuns            uint64
	// Compaction-scheduler gauges. CompactionDebtBytes is the total bytes
	// above the per-level size targets (the scheduler's job-ordering
	// signal, summed across shards); CompactionDebtByLevel is the same per
	// level (index 0 unused, element-wise sum across shards);
	// ParallelCompactions counts maintenance jobs in flight now (summed);
	// CompactionWorkersBusy counts busy workers in the shared pool (the
	// pool spans shards, so the aggregate takes the maximum, not the sum).
	CompactionDebtBytes   uint64
	CompactionDebtByLevel []uint64
	ParallelCompactions   uint64
	CompactionWorkersBusy uint64
	// Sessions v2 gauges. SnapshotsOpen counts open Snapshot sessions
	// (plus live iterators, which pin the same machinery); a router
	// snapshot pins every shard, so a sharded aggregate counts N per
	// open session. AsyncCommitsInFlight counts CommitAsync batches
	// acknowledged but not yet durable (bounded per shard by
	// Options.MaxAsyncCommitBacklog).
	SnapshotsOpen        uint64
	AsyncCommitsInFlight uint64

	// The read buffer (each shard has its own): block lookups that hit and
	// that missed, and the misses read into a frame an evicted block left
	// free instead of into new memory.
	BlockCacheHits           uint64
	BlockCacheMisses         uint64
	BlockCacheFramesRecycled uint64

	// Enclave boundary traffic (zero for ModeUnsecured): crossings, bytes
	// copied across, protected bytes held. Shards share one enclave, so the
	// aggregate equals any one shard's view and per-shard entries repeat it.
	ECalls       uint64
	OCalls       uint64
	CopiedBytes  uint64
	EnclaveBytes uint64

	// Verification work (ModeP2 only). VerifiedGets and RunsProbed count
	// point reads; ProofBytes counts the embedded-proof bytes copied into the
	// enclave by point reads and scans alike (a scan copies at most four
	// proofs per run per chunk).
	VerifiedGets uint64
	ProofBytes   uint64
	RunsProbed   uint64
	// The verified-node cache at work (verify_node_cache_hits,
	// verify_node_cache_misses, verify_node_hashes on the wire and in
	// /metrics): Merkle walks — a point read's witnesses, a scan chunk's
	// per-run range walk and its boundary witnesses — that stopped at an
	// already-verified cached node, walks that went all the way to the
	// trusted root, and the interior node hashes those walks computed.
	// Shards share one cache but count their own walks.
	VerifyNodeCacheHits   uint64
	VerifyNodeCacheMisses uint64
	VerifyNodeHashes      uint64

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
	from     func(*shardSources) uint64 // where a shard's value is read; nil: set by statsOf or ShardStats
}

// shardSources is what one shard's counters are read from: its engine, the
// enclave every shard shares (zero for ModeUnsecured) and its verification
// counters (zero outside ModeP2).
type shardSources struct {
	eng lsm.Stats
	enc sgx.Stats
	ver core.VerifyStats
}

// statCounters is the one place a counter is declared: Store.Stats folds by
// it, the STATS verb and /metrics render from it (in this order), and
// TestStatsTableIsTotal holds it to every numeric field of Stats.
var statCounters = []statCounter{
	{"shards", foldSum, false, func(s *Stats) *uint64 { return &s.Shards }, nil},
	{"flushes", foldSum, false, func(s *Stats) *uint64 { return &s.Flushes }, func(f *shardSources) uint64 { return f.eng.Flushes }},
	{"compactions", foldSum, false, func(s *Stats) *uint64 { return &s.Compactions }, func(f *shardSources) uint64 { return f.eng.Compactions }},
	{"background_compactions", foldSum, false, func(s *Stats) *uint64 { return &s.BackgroundCompactions }, func(f *shardSources) uint64 { return f.eng.BackgroundCompactions }},
	{"bytes_flushed", foldSum, false, func(s *Stats) *uint64 { return &s.BytesFlushed }, func(f *shardSources) uint64 { return f.eng.BytesFlushed }},
	{"bytes_compacted", foldSum, false, func(s *Stats) *uint64 { return &s.BytesCompacted }, func(f *shardSources) uint64 { return f.eng.BytesCompacted }},
	{"records_dropped", foldSum, false, func(s *Stats) *uint64 { return &s.RecordsDropped }, func(f *shardSources) uint64 { return f.eng.RecordsDropped }},
	{"manifest_updates", foldSum, false, func(s *Stats) *uint64 { return &s.ManifestUpdates }, func(f *shardSources) uint64 { return f.eng.ManifestUpdates }},
	{"disk_bytes", foldSum, true, func(s *Stats) *uint64 { return &s.DiskBytes }, nil},
	{"wal_syncs", foldSum, true, func(s *Stats) *uint64 { return &s.WALSyncs }, func(f *shardSources) uint64 { return f.eng.WALSyncs }},
	{"group_commits", foldSum, true, func(s *Stats) *uint64 { return &s.GroupCommits }, func(f *shardSources) uint64 { return f.eng.GroupCommits }},
	{"grouped_records", foldSum, false, func(s *Stats) *uint64 { return &s.GroupedRecords }, func(f *shardSources) uint64 { return f.eng.GroupedRecords }},
	{"wal_torn_records", foldSum, false, func(s *Stats) *uint64 { return &s.WALTornRecords }, func(f *shardSources) uint64 { return f.eng.WALTornRecords }},
	{"flush_stall_nanos", foldSum, false, func(s *Stats) *uint64 { return &s.FlushStallNanos }, func(f *shardSources) uint64 { return f.eng.FlushStallNanos }},
	{"compaction_stall_nanos", foldSum, false, func(s *Stats) *uint64 { return &s.CompactionStallNanos }, func(f *shardSources) uint64 { return f.eng.CompactionStallNanos }},
	{"compaction_debt_bytes", foldSum, true, func(s *Stats) *uint64 { return &s.CompactionDebtBytes }, func(f *shardSources) uint64 { return f.eng.CompactionDebtBytes }},
	{"parallel_compactions", foldSum, false, func(s *Stats) *uint64 { return &s.ParallelCompactions }, func(f *shardSources) uint64 { return f.eng.ParallelCompactions }},
	{"compaction_workers_busy", foldMax, false, func(s *Stats) *uint64 { return &s.CompactionWorkersBusy }, func(f *shardSources) uint64 { return f.eng.CompactionWorkersBusy }},
	{"pinned_runs", foldSum, false, func(s *Stats) *uint64 { return &s.PinnedRuns }, func(f *shardSources) uint64 { return f.eng.PinnedRuns }},
	{"snapshots_open", foldSum, true, func(s *Stats) *uint64 { return &s.SnapshotsOpen }, func(f *shardSources) uint64 { return f.eng.SnapshotsOpen }},
	{"async_commits_in_flight", foldSum, true, func(s *Stats) *uint64 { return &s.AsyncCommitsInFlight }, func(f *shardSources) uint64 { return f.eng.AsyncCommitsInFlight }},
	{"block_cache_hits", foldSum, false, func(s *Stats) *uint64 { return &s.BlockCacheHits }, func(f *shardSources) uint64 { return f.eng.BlockCacheHits }},
	{"block_cache_misses", foldSum, false, func(s *Stats) *uint64 { return &s.BlockCacheMisses }, func(f *shardSources) uint64 { return f.eng.BlockCacheMisses }},
	{"block_cache_frames_recycled", foldSum, false, func(s *Stats) *uint64 { return &s.BlockCacheFramesRecycled }, func(f *shardSources) uint64 { return f.eng.BlockCacheFramesRecycled }},
	{"ecalls", foldOnce, false, func(s *Stats) *uint64 { return &s.ECalls }, func(f *shardSources) uint64 { return f.enc.ECalls }},
	{"ocalls", foldOnce, false, func(s *Stats) *uint64 { return &s.OCalls }, func(f *shardSources) uint64 { return f.enc.OCalls }},
	{"copied_bytes", foldOnce, false, func(s *Stats) *uint64 { return &s.CopiedBytes }, func(f *shardSources) uint64 { return f.enc.CopiedBytes }},
	{"enclave_bytes", foldOnce, false, func(s *Stats) *uint64 { return &s.EnclaveBytes }, func(f *shardSources) uint64 { return uint64(f.enc.AllocatedBytes) }},
	{"verified_gets", foldSum, false, func(s *Stats) *uint64 { return &s.VerifiedGets }, func(f *shardSources) uint64 { return f.ver.Gets }},
	{"proof_bytes", foldSum, false, func(s *Stats) *uint64 { return &s.ProofBytes }, func(f *shardSources) uint64 { return f.ver.ProofBytes }},
	{"runs_probed", foldSum, false, func(s *Stats) *uint64 { return &s.RunsProbed }, func(f *shardSources) uint64 { return f.ver.RunsProbed }},
	{"verify_node_cache_hits", foldSum, false, func(s *Stats) *uint64 { return &s.VerifyNodeCacheHits }, func(f *shardSources) uint64 { return f.ver.NodeCacheHits }},
	{"verify_node_cache_misses", foldSum, false, func(s *Stats) *uint64 { return &s.VerifyNodeCacheMisses }, func(f *shardSources) uint64 { return f.ver.NodeCacheMisses }},
	{"verify_node_hashes", foldSum, false, func(s *Stats) *uint64 { return &s.VerifyNodeHashes }, func(f *shardSources) uint64 { return f.ver.NodeHashes }},
	{"repl_lag_groups", foldSum, false, func(s *Stats) *uint64 { return &s.ReplLagGroups }, nil},
	{"repl_lag_bytes", foldSum, false, func(s *Stats) *uint64 { return &s.ReplLagBytes }, nil},
	{"followers_connected", foldSum, false, func(s *Stats) *uint64 { return &s.FollowersConnected }, nil},
	{"repl_reconnects", foldSum, false, func(s *Stats) *uint64 { return &s.ReplReconnects }, nil},
	{"repl_rebootstraps", foldOnce, false, func(s *Stats) *uint64 { return &s.ReplRebootstraps }, nil},
	{"repl_epoch", foldOnce, false, func(s *Stats) *uint64 { return &s.ReplEpoch }, nil},
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

// statsOf collects shard i's engine, enclave and verification counters, each
// from the source its statCounters row names.
func (set *engineSet) statsOf(i int) Stats {
	eng := set.shards[i].Engine()
	src := shardSources{eng: eng.Stats()}
	out := Stats{Shards: 1, DiskBytes: uint64(eng.DiskBytes())}
	out.CompactionDebtByLevel = append([]uint64(nil), src.eng.CompactionDebtByLevel...)
	if set.enclave != nil {
		src.enc = set.enclave.Stats()
	}
	if cs := set.p2(i); cs != nil {
		src.ver = cs.VerifyStatsSnapshot()
		out.ReplEpoch = cs.ReplEpoch()
	}
	for _, c := range statCounters {
		if c.from != nil {
			*c.field(&out) = c.from(&src)
		}
	}
	return out
}

// Stats returns current counters: ShardStats folded by each counter's rule
// (the one entry itself on an unsharded store). Fields not applicable to
// the store's mode are zero.
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
