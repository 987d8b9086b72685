package ycsb

import (
	"testing"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/sgx"
	"elsm/internal/shard"
)

// openShardedKV builds an n-shard router of eLSM-P2 stores (shared
// enclave, private MemFS each) — the sharded target the YCSB driver runs
// against exactly as it runs against a single core.KV.
func openShardedKV(t *testing.T, n int) *shard.Router {
	t.Helper()
	enclave := sgx.New(sgx.Params{})
	shards := make([]core.KV, n)
	for i := range shards {
		s, err := core.Open(core.Config{
			Enclave: enclave,
			Geometry: lsm.Geometry{
				MemtableSize:  32 << 10,
				BlockSize:     512,
				TableFileSize: 16 << 10,
				LevelBase:     64 << 10,
			},
			KeepVersions: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = s
	}
	r, err := shard.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestConcurrentWorkloadOnShardedStore drives the multi-threaded YCSB
// runner against a 4-shard router: concurrent verified reads, cross-shard
// batched writes and merged range scans must complete without a single
// verification or op error — the sharded counterpart of the single-store
// concurrency test at the package root.
func TestConcurrentWorkloadOnShardedStore(t *testing.T) {
	r := openShardedKV(t, 4)
	defer r.Close()
	const n = 1200
	if err := r.BulkLoad(GenRecords(n, 64)); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []Workload{WorkloadA(), WorkloadE()} {
		wl.ValueSize = 64
		st, err := RunConcurrent(r, wl, n, 4, 300, 11)
		if err != nil {
			t.Fatalf("workload %s: %v", wl.Name, err)
		}
		if st.Errors != 0 {
			t.Fatalf("workload %s: %d op errors on the sharded store", wl.Name, st.Errors)
		}
		if st.Ops != 1200 {
			t.Fatalf("workload %s: ops = %d", wl.Name, st.Ops)
		}
	}
}

// TestBatchedLoadSpreadsAcrossShards checks the batched load path splits
// its groups across every shard.
func TestBatchedLoadSpreadsAcrossShards(t *testing.T) {
	r := openShardedKV(t, 4)
	defer r.Close()
	if err := LoadBatched(r, 400, 64, 32); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		res, err := core.Scan(r.Shard(i), Key(0), Key(400))
		if err != nil {
			t.Fatalf("shard %d scan: %v", i, err)
		}
		if len(res) == 0 {
			t.Fatalf("shard %d received no records from the batched load", i)
		}
	}
	got, err := core.Scan(r, Key(0), Key(400))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("merged scan after batched load: %d of 400", len(got))
	}
}
