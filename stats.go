package elsm

import (
	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/sgx"
	"elsm/internal/shard"
)

// Stats is a point-in-time snapshot of the store's engine and simulated-
// enclave activity, for observability and the benchmark harness. On a
// sharded store, Store.Stats aggregates across shards (counters sum;
// per-pipeline gauges like GroupCommitWindowNanos report the maximum) and
// Store.ShardStats exposes the per-shard breakdown.
type Stats struct {
	// Shards is the partition count these counters cover: the store's
	// shard count for the aggregate view, 1 for a per-shard entry.
	Shards int

	// Mode-independent engine counters.
	Flushes         uint64
	Compactions     uint64
	BytesFlushed    uint64
	BytesCompacted  uint64
	RecordsDropped  uint64
	ManifestUpdates uint64
	DiskBytes       int64

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
	// GroupCommitWindowNanos is the resolved leader batching window (the
	// adaptive value when GroupCommitWindow = AutoGroupCommitWindow);
	// FsyncEWMANanos is the fsync-latency EWMA feeding it. Aggregated as
	// the maximum across shards.
	GroupCommitWindowNanos uint64
	FsyncEWMANanos         uint64

	// Simulated SGX activity (zero for ModeUnsecured). Shards share one
	// enclave, so the aggregate equals any one shard's view and per-shard
	// entries repeat it.
	PageFaults    uint64
	ECalls        uint64
	OCalls        uint64
	CopiedBytes   uint64
	ResidentPages int
	EnclaveBytes  int64

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

// engined is implemented by every store variant.
type engined interface {
	Engine() *lsm.Store
}

// enclaved is implemented by the enclave-hosted variants (the unsecured
// baseline implements it too, with a nil enclave).
type enclaved interface {
	Enclave() *sgx.Enclave
}

// statsOf collects one KV instance's counters.
func statsOf(kv core.KV) Stats {
	out := Stats{Shards: 1}
	if e, ok := kv.(engined); ok {
		es := e.Engine().Stats()
		out.Flushes = es.Flushes
		out.Compactions = es.Compactions
		out.BytesFlushed = es.BytesFlushed
		out.BytesCompacted = es.BytesCompacted
		out.RecordsDropped = es.RecordsDropped
		out.ManifestUpdates = es.ManifestUpdates
		out.DiskBytes = e.Engine().DiskBytes()
		out.WALSyncs = es.WALSyncs
		out.GroupCommits = es.GroupCommits
		out.GroupedRecords = es.GroupedRecords
		out.WALTornRecords = es.WALTornRecords
		out.FlushStallNanos = es.FlushStallNanos
		out.CompactionStallNanos = es.CompactionStallNanos
		out.BackgroundCompactions = es.BackgroundCompactions
		out.PinnedRuns = es.PinnedRuns
		out.CompactionDebtBytes = es.CompactionDebtBytes
		out.CompactionDebtByLevel = append([]uint64(nil), es.CompactionDebtByLevel...)
		out.ParallelCompactions = es.ParallelCompactions
		out.CompactionWorkersBusy = es.CompactionWorkersBusy
		out.SnapshotsOpen = es.SnapshotsOpen
		out.AsyncCommitsInFlight = es.AsyncCommitsInFlight
		out.GroupCommitWindowNanos = es.GroupCommitWindowNanos
		out.FsyncEWMANanos = es.FsyncEWMANanos
	}
	if e, ok := kv.(enclaved); ok && e.Enclave() != nil {
		st := e.Enclave().Stats()
		out.PageFaults = st.PageFaults
		out.ECalls = st.ECalls
		out.OCalls = st.OCalls
		out.CopiedBytes = st.CopiedBytes
		out.ResidentPages = st.ResidentPages
		out.EnclaveBytes = st.AllocatedBytes
	}
	if p2, ok := kv.(*core.Store); ok {
		vs := p2.VerifyStatsSnapshot()
		out.VerifiedGets = vs.Gets
		out.ProofBytes = vs.ProofBytes
		out.RunsProbed = vs.RunsProbed
		out.VerifyNodeCacheHits = vs.NodeCacheHits
		out.VerifyNodeCacheMisses = vs.NodeCacheMisses
		out.VerifyNodeHashes = vs.NodeHashes
	}
	return out
}

// add folds another shard's counters into the aggregate: counters and
// current-level gauges sum, per-pipeline tuning gauges take the maximum.
// Enclave fields are NOT folded here — shards share one enclave, so the
// caller counts it once.
func (s *Stats) add(o Stats) {
	s.Shards += o.Shards
	s.Flushes += o.Flushes
	s.Compactions += o.Compactions
	s.BytesFlushed += o.BytesFlushed
	s.BytesCompacted += o.BytesCompacted
	s.RecordsDropped += o.RecordsDropped
	s.ManifestUpdates += o.ManifestUpdates
	s.DiskBytes += o.DiskBytes
	s.WALSyncs += o.WALSyncs
	s.GroupCommits += o.GroupCommits
	s.GroupedRecords += o.GroupedRecords
	s.WALTornRecords += o.WALTornRecords
	s.FlushStallNanos += o.FlushStallNanos
	s.CompactionStallNanos += o.CompactionStallNanos
	s.BackgroundCompactions += o.BackgroundCompactions
	s.PinnedRuns += o.PinnedRuns
	s.CompactionDebtBytes += o.CompactionDebtBytes
	for len(s.CompactionDebtByLevel) < len(o.CompactionDebtByLevel) {
		s.CompactionDebtByLevel = append(s.CompactionDebtByLevel, 0)
	}
	for i, d := range o.CompactionDebtByLevel {
		s.CompactionDebtByLevel[i] += d
	}
	s.ParallelCompactions += o.ParallelCompactions
	if o.CompactionWorkersBusy > s.CompactionWorkersBusy {
		s.CompactionWorkersBusy = o.CompactionWorkersBusy
	}
	s.SnapshotsOpen += o.SnapshotsOpen
	s.AsyncCommitsInFlight += o.AsyncCommitsInFlight
	if o.GroupCommitWindowNanos > s.GroupCommitWindowNanos {
		s.GroupCommitWindowNanos = o.GroupCommitWindowNanos
	}
	if o.FsyncEWMANanos > s.FsyncEWMANanos {
		s.FsyncEWMANanos = o.FsyncEWMANanos
	}
	s.VerifiedGets += o.VerifiedGets
	s.ProofBytes += o.ProofBytes
	s.RunsProbed += o.RunsProbed
	s.VerifyNodeCacheHits += o.VerifyNodeCacheHits
	s.VerifyNodeCacheMisses += o.VerifyNodeCacheMisses
	s.VerifyNodeHashes += o.VerifyNodeHashes
}

// Stats returns current counters — aggregated across every shard on a
// sharded store. Fields not applicable to the store's mode are zero.
func (s *Store) Stats() Stats {
	kv := s.base()
	r, ok := kv.(*shard.Router)
	if !ok {
		out := statsOf(kv)
		s.replStats(&out, s.currentTailers())
		return out
	}
	var out Stats
	for i := 0; i < r.NumShards(); i++ {
		st := statsOf(r.Shard(i))
		if i == 0 {
			// The enclave is shared: count its activity once.
			out.PageFaults = st.PageFaults
			out.ECalls = st.ECalls
			out.OCalls = st.OCalls
			out.CopiedBytes = st.CopiedBytes
			out.ResidentPages = st.ResidentPages
			out.EnclaveBytes = st.EnclaveBytes
		}
		out.add(st)
	}
	s.replStats(&out, s.currentTailers())
	return out
}

// ShardStats returns the per-shard counter breakdown, in shard order. A
// single-instance store returns one entry (identical to Stats). Enclave
// fields repeat the shared enclave's totals in every entry.
func (s *Store) ShardStats() []Stats {
	kv := s.base()
	r, ok := kv.(*shard.Router)
	if !ok {
		one := statsOf(kv)
		s.replStats(&one, s.currentTailers())
		return []Stats{one}
	}
	tailers := s.currentTailers()
	rebootstraps := s.rebootstraps.Load()
	out := make([]Stats, r.NumShards())
	for i := range out {
		out[i] = statsOf(r.Shard(i))
		if cs, ok := r.Shard(i).(*core.Store); ok {
			out[i].ReplEpoch = cs.ReplEpoch()
		}
		out[i].ReplRebootstraps = rebootstraps
		if i < len(tailers) {
			out[i].ReplLagGroups, out[i].ReplLagBytes = tailers[i].Lag()
			out[i].ReplReconnects = tailers[i].Reconnects()
		}
	}
	s.replMu.Lock()
	for i, l := range s.leaders {
		if i < len(out) {
			out[i].FollowersConnected = uint64(l.Followers())
		}
	}
	s.replMu.Unlock()
	return out
}
