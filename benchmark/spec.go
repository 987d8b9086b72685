package main

import "elsm/internal/ycsb"

// Fixed conditions of every run (ISSUE 14): ModeP2 on a MemFS, zero cost
// model, default engine sizes, instrumentation on, GOMAXPROCS = nproc.
const (
	datasetKeys = 50000 // identical for every seed; the seed picks only key choices and coins
	valueSize   = 100   // bytes; with the 16-byte key a record is 116 user bytes
	userRecord  = 16 + valueSize
	scanLen     = 50  // rows per scan-short range
	loadPerStep = 512 // records per shard between two set-up quiesce points
	loadBatch   = 64  // records per Batch.Commit while loading

	trials = 4  // T: a run is four trials of the same work
	slices = 20 // S: a pass is cut into twenty equally sized steps
	// readPasses is how often a trial runs a pass that writes nothing: the
	// store after it is the store before it, so the second pass is the same
	// work step for step, and every step has eight executions to take the
	// minimum over instead of four, in the same time (the passes are half as
	// long). A pass that writes changes the store and is run once.
	readPasses = 2
	spanThin   = 64 // client spans written to trace.json: 1 in 64
	disturbed  = 0.15
)

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is what a user of the store sees; the same nine on every
// workload. Bound is how far the median may worsen before it is a
// regression. The four timing bounds are the contract's maximum, not the
// 10 % (set-up 15 %) ISSUE 14 asked for: the driver refused those (two sets
// of ten runs of one build spread 10.2 % on scan-short), and when this box
// goes into one of its heavy periods the same binary spreads 15-26 %
// whatever the estimator (README, "How steady it is").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_kops", "kops/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.05},
	{"write_amp", "ratio", "lower", 0.05},
	{"live_rss_mb", "MB", "lower", 0.10},
}

// perLayer is the outside-in ledger of the traced run: <module>.<what>,
// never gated; a 0 means the workload does not exercise the layer.
var perLayer = []metricSpec{
	// Spans around the facade call: these are op_p50_us seen as means.
	{Name: "elsm.get_us", Unit: "us", Better: "lower"},
	{Name: "elsm.put_us", Unit: "us", Better: "lower"},
	{Name: "elsm.scan_us", Unit: "us", Better: "lower"},
	// Counters of the verified read and authenticated write paths.
	{Name: "core.get_e2e_us", Unit: "us", Better: "lower"},
	{Name: "core.verify_us_per_get", Unit: "us", Better: "lower"},
	{Name: "core.proof_bytes_per_get", Unit: "B", Better: "lower"},
	{Name: "core.runs_probed_per_get", Unit: "count", Better: "lower"},
	{Name: "core.scan_chunk_us", Unit: "us", Better: "lower"},
	{Name: "core.put_e2e_us", Unit: "us", Better: "lower"},
	// Read replay: the GET and SCAN protocols walked by hand.
	{Name: "lsm.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "memtable.get_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.lookup_run_ns", Unit: "ns", Better: "lower"},
	{Name: "core.proof_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.reconstruct_leaf_ns", Unit: "ns", Better: "lower"},
	{Name: "merkle.verify_path_ns", Unit: "ns", Better: "lower"},
	{Name: "merkle.verify_range_ns", Unit: "ns", Better: "lower"},
	{Name: "lsm.scan_run_chunk_ns", Unit: "ns", Better: "lower"},
	{Name: "ledger.get_unaccounted_pct", Unit: "%", Better: "lower"},
	{Name: "ledger.scan_unaccounted_pct", Unit: "%", Better: "lower"},
	// The same operations on a ModeUnsecured store, and the paper's ratio.
	{Name: "lsm.raw_get_us", Unit: "us", Better: "lower"},
	{Name: "lsm.raw_put_us", Unit: "us", Better: "lower"},
	{Name: "lsm.raw_scan_us", Unit: "us", Better: "lower"},
	{Name: "core.auth_overhead_get_x", Unit: "ratio", Better: "lower"},
	{Name: "core.auth_overhead_put_x", Unit: "ratio", Better: "lower"},
	{Name: "core.auth_overhead_scan_x", Unit: "ratio", Better: "lower"},
	// Commit pipeline stage means.
	{Name: "lsm.commit_queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "lsm.commit_append_us", Unit: "us", Better: "lower"},
	{Name: "lsm.commit_fsync_us", Unit: "us", Better: "lower"},
	{Name: "lsm.commit_apply_us", Unit: "us", Better: "lower"},
	{Name: "lsm.commit_resolve_us", Unit: "us", Better: "lower"},
	{Name: "lsm.group_size", Unit: "count", Better: "higher"},
	{Name: "lsm.wal_syncs_per_op", Unit: "count", Better: "lower"},
	{Name: "ledger.put_unaccounted_pct", Unit: "%", Better: "lower"},
	// Background maintenance during the pass, and the set-up fingerprint.
	{Name: "lsm.flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.compactions", Unit: "count", Better: "lower"},
	{Name: "lsm.compact_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "lsm.bytes_flushed_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "lsm.bytes_compacted_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "lsm.flush_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "lsm.compaction_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "lsm.setup_disk_bytes", Unit: "B", Better: "lower"},
	{Name: "lsm.setup_flushes", Unit: "count", Better: "lower"},
	{Name: "lsm.setup_compactions", Unit: "count", Better: "lower"},
	{Name: "lsm.setup_bytes_compacted", Unit: "B", Better: "lower"},
	// Write-side probes into the modules' exported functions.
	{Name: "wal.append_batch_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "memtable.put_ns", Unit: "ns", Better: "lower"},
	{Name: "sstable.build_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "sstable.seek_with_prev_ns", Unit: "ns", Better: "lower"},
	{Name: "sstable.decode_block_ns", Unit: "ns", Better: "lower"},
	{Name: "sstable.proof_share", Unit: "ratio", Better: "lower"},
	{Name: "merkle.build_ns_per_leaf", Unit: "ns", Better: "lower"},
	{Name: "merkle.path_ns", Unit: "ns", Better: "lower"},
	{Name: "merkle.path_allocs", Unit: "count", Better: "lower"},
	{Name: "core.proof_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "blockcache.get_hit_ns", Unit: "ns", Better: "lower"},
	// Simulated enclave boundary.
	{Name: "sgx.ecalls_per_op", Unit: "count", Better: "lower"},
	{Name: "sgx.ocalls_per_op", Unit: "count", Better: "lower"},
	{Name: "sgx.copied_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "sgx.ecall_ns", Unit: "ns", Better: "lower"},
	// Network front end (wire-mixed only).
	{Name: "netclient.call_us", Unit: "us", Better: "lower"},
	{Name: "netsrv.service_us", Unit: "us", Better: "lower"},
	{Name: "netsrv.bytes_in_per_op", Unit: "B", Better: "lower"},
	{Name: "netsrv.bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "netsrv.busy_rejects", Unit: "count", Better: "lower"},
	{Name: "shard.router_batch_us", Unit: "us", Better: "lower"},
	{Name: "netsrv.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netproto.request_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "netproto.response_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "ledger.wire_overhead_us", Unit: "us", Better: "lower"},
	// Context for live_rss_mb, cpu_us_per_op, op_p50_us.
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "go.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.disturbed_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "core.reopen_ms", Unit: "ms", Better: "lower"},
}

type opKind uint8

const (
	opGet opKind = iota + 1
	opGetAbsent
	opScan
	opPut
)

// class folds the two kinds of Get into one operation type.
func (k opKind) class() opKind {
	if k == opGetAbsent {
		return opGet
	}
	return k
}

func (k opKind) String() string {
	return [...]string{"", "get", "get", "scan", "put"}[k]
}

// workloadSpec fixes everything about a workload except the seed. Clients
// is the number of closed-loop callers: each sends its next operation only
// when the previous one has been answered.
type workloadSpec struct {
	Name string
	Why  string
	// RateKops is the reference rate: operations per pass = rate × the
	// pass's share of --seconds, so a pass is a fixed amount of work.
	RateKops     float64
	Shards       int
	CacheSize    int
	KeepVersions int
	// Conns > 0 serves the store through netsrv on loopback and spreads
	// the callers over this many netclient connections.
	Conns   int
	Clients int
	Primary opKind
	Dist    ycsb.Distribution
	// GetPct and ScanPct split a caller's stream; the rest are Puts to
	// keys the caller owns. AbsentPct of the Gets ask for absent keys.
	GetPct, ScanPct, AbsentPct int
}

func (w workloadSpec) writes() bool { return w.GetPct+w.ScanPct < 100 }

// passes is how many times a trial runs the pass on its store.
func (w workloadSpec) passes() int {
	if w.writes() {
		return 1
	}
	return readPasses
}

var workloads = []workloadSpec{
	{
		Name: "read-zipf",
		Why: "verified Gets, zipfian, 10% absent keys, 8 MiB cache against 35 MB of runs: " +
			"all work is core verification, sstable seek/decode and blockcache; the write side does nothing",
		RateKops: 64, Shards: 1, CacheSize: 8 << 20, Clients: 2,
		Primary: opGet, Dist: ycsb.Zipfian, GetPct: 100, AbsentPct: 10,
	},
	{
		Name: "scan-short",
		Why: "verified 50-key Scans at uniform starts on the same dataset: " +
			"range completeness on every run, chunk iterators and per-row allocation, not point lookups",
		RateKops: 8, Shards: 1, CacheSize: 8 << 20, Clients: 2,
		Primary: opScan, Dist: ycsb.Uniform, ScanPct: 100,
	},
	{
		Name: "write-sustained",
		Why: "uniform durable Puts rewriting the bottom level: throughput is authenticated compaction " +
			"(merkle build, proof encode, sstable build, memtable, wal, stalls); no reads at all",
		RateKops: 24, Shards: 1, CacheSize: 8 << 20, KeepVersions: 1, Clients: 2,
		Primary: opPut, Dist: ycsb.Uniform,
	},
	{
		Name: "wire-mixed",
		Why: "80/20 Get/Put over netsrv loopback, 4 shards, 2 connections x 8 callers, cache fits: " +
			"wire codec, router, four commit pipelines and the shared enclave mutex; reads beside writes",
		RateKops: 44, Shards: 4, CacheSize: 256 << 20, KeepVersions: 1, Conns: 2, Clients: 16,
		Primary: opGet, Dist: ycsb.Zipfian, GetPct: 80,
	},
}

// runSeconds is BENCHMARK.json's run_seconds: 3 s of passes per trial at
// reference speed (one pass, or two of 1.5 s where nothing is written). A
// run is about 4 x (2.7 s set-up + 3 s) + audit = 19-25 s on 2 cores and
// 28-39 s in this box's heavy periods; the driver's cap leaves 36 s a run,
// and hours with a heavy period in them averaged 25 and 29 s.
const runSeconds = 12

// benchmarkSpec is BENCHMARK.json, generated from the tables above so the
// two cannot drift (the tests compare them).
func benchmarkSpec() map[string]interface{} {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]interface{}{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  endToEnd,
		"per_layer":   ls,
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
