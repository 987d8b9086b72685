// Tests for the public sharded-store surface: hash-partitioned routing
// behind Options.Shards, merged verified scans against a single-shard
// oracle, cross-shard batch and snapshot semantics, per-shard roots of
// trust across reopen, and stats aggregation.
package elsm

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"elsm/internal/core"
	"elsm/internal/sgx"
	"elsm/internal/shard"
	"elsm/internal/vfs"
)

// shardedOptions is the small-geometry config for sharded tests.
func shardedOptions(mode Mode, shards int) Options {
	opts := testOptions(mode)
	opts.Shards = shards
	return opts
}

func TestOpenValidatesShardOptions(t *testing.T) {
	bad := []struct {
		opts    Options
		wantMsg string
	}{
		{Options{Shards: -1}, "Shards must be ≥ 1"},
		{Options{Shards: 3}, "Shards must be a power of two"},
		{Options{Shards: 6}, "Shards must be a power of two"},
		{Options{Shards: 2, ShardCounters: []*sgx.MonotonicCounter{sgx.NewMonotonicCounter()}}, "ShardCounters carries 1 counters for 2 shards"},
		{Options{ShardCounters: make([]*sgx.MonotonicCounter, 2)}, "ShardCounters carries 2 counters for 1 shards"},
	}
	for i, tc := range bad {
		_, err := Open(tc.opts)
		if err == nil {
			t.Fatalf("bad option set %d accepted: %+v", i, tc.opts)
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Fatalf("bad option set %d: error %q does not name the offence (want %q)", i, err, tc.wantMsg)
		}
	}
	// Shards: 0 and Shards: 1 are both the single-instance store.
	for _, n := range []int{0, 1} {
		s, err := Open(Options{Shards: n})
		if err != nil {
			t.Fatalf("Shards=%d rejected: %v", n, err)
		}
		if s.Shards() != 1 {
			t.Fatalf("Shards=%d opened %d partitions", n, s.Shards())
		}
		s.Close()
	}
}

// TestShardedMergedScanMatchesOracle is the acceptance oracle: the same
// operation sequence applied to a 4-shard store and a single-instance store
// must produce byte-identical, verification-passing merged scans — in all
// three modes. (Trusted timestamps are per-shard and excluded: only
// keys/values/found are compared.)
func TestShardedMergedScanMatchesOracle(t *testing.T) {
	for _, mode := range []Mode{ModeP2, ModeP1, ModeUnsecured} {
		t.Run(mode.String(), func(t *testing.T) {
			sharded, err := Open(shardedOptions(mode, 4))
			if err != nil {
				t.Fatal(err)
			}
			defer sharded.Close()
			oracle, err := Open(shardedOptions(mode, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer oracle.Close()

			apply := func(s *Store) {
				t.Helper()
				for i := 0; i < 400; i++ {
					if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
						t.Fatal(err)
					}
				}
				// Overwrites, deletes and batches, with flushes in between
				// so both stores serve from disk runs AND memtables.
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				b := s.NewBatch()
				for i := 100; i < 200; i++ {
					b.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v2-%d", i)))
				}
				for i := 300; i < 330; i++ {
					b.Delete([]byte(fmt.Sprintf("key%04d", i)))
				}
				if _, err := b.Commit(); err != nil {
					t.Fatal(err)
				}
				for i := 350; i < 360; i++ {
					if _, err := s.Delete([]byte(fmt.Sprintf("key%04d", i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			apply(sharded)
			apply(oracle)

			want, err := oracle.Scan([]byte("key"), []byte("kez"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Scan([]byte("key"), []byte("kez"))
			if err != nil {
				t.Fatalf("merged verified scan failed: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("merged scan: %d results, oracle %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) || got[i].Found != want[i].Found {
					t.Fatalf("merged scan diverged at %d: %q/%q vs oracle %q/%q",
						i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}

			// The streaming iterator agrees with the materialized scan.
			it := sharded.Iter([]byte("key"), []byte("kez"))
			n := 0
			for it.Next() {
				if !bytes.Equal(it.Key(), want[n].Key) || !bytes.Equal(it.Value(), want[n].Value) {
					t.Fatalf("merged stream diverged at %d: %q/%q", n, it.Key(), it.Value())
				}
				n++
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("merged stream yielded %d of %d", n, len(want))
			}

			// Point reads agree too (spot check, including deleted keys).
			for i := 0; i < 400; i += 17 {
				key := []byte(fmt.Sprintf("key%04d", i))
				a, err := sharded.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				b, err := oracle.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if a.Found != b.Found || !bytes.Equal(a.Value, b.Value) {
					t.Fatalf("point read %q diverged: %q/%v vs %q/%v", key, a.Value, a.Found, b.Value, b.Found)
				}
			}
		})
	}
}

// TestShardedSnapshotAtomicAcrossShards: a router snapshot never observes
// half of a cross-shard batch, and stays repeatable under churn.
func TestShardedSnapshotAtomicAcrossShards(t *testing.T) {
	s, err := Open(shardedOptions(ModeP2, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Writer: cross-shard batches where every key of batch i carries value
	// i — a snapshot that sees two different values tore a batch.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			b := s.NewBatch()
			for j := 0; j < 16; j++ {
				b.Put([]byte(fmt.Sprintf("atomic%02d", j)), []byte(fmt.Sprintf("gen%06d", i)))
			}
			if _, err := b.CommitCtx(nil); err != nil {
				done <- err
				return
			}
			select {
			case <-ctx.Done():
				done <- nil
				return
			default:
			}
		}
	}()

	for round := 0; round < 30; round++ {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		res, err := snap.Scan([]byte("atomic"), []byte("atomid"))
		if err != nil {
			t.Fatal(err)
		}
		gens := map[string]bool{}
		for _, r := range res {
			gens[string(r.Value)] = true
		}
		if len(res) > 0 && len(gens) != 1 {
			t.Fatalf("snapshot observed a torn cross-shard batch: generations %v", gens)
		}
		// Repeatable.
		res2, err := snap.Scan([]byte("atomic"), []byte("atomid"))
		if err != nil {
			t.Fatal(err)
		}
		if len(res2) != len(res) {
			t.Fatalf("snapshot not repeatable: %d vs %d", len(res), len(res2))
		}
		snap.Close()
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShardedPersistenceAcrossReopen: a dir-backed 4-shard store reopens
// from its per-shard directories with per-shard counters and serves
// verified reads; reopening with the wrong shard count is detectably wrong
// (keys route to shards that cannot verify them as present).
func TestShardedPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	counters := []*sgx.MonotonicCounter{
		sgx.NewMonotonicCounter(), sgx.NewMonotonicCounter(),
		sgx.NewMonotonicCounter(), sgx.NewMonotonicCounter(),
	}
	opts := Options{Dir: dir, Shards: 4, Platform: platform, ShardCounters: counters}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatalf("sharded reopen: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 200; i += 13 {
		res, err := s2.Get([]byte(fmt.Sprintf("key%04d", i)))
		if err != nil || !res.Found || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after reopen key%04d: %+v err=%v", i, res, err)
		}
	}
	scan, err := s2.Scan([]byte("key"), []byte("kez"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 200 {
		t.Fatalf("scan after reopen: %d results, want 200", len(scan))
	}
}

// TestOpensLayoutWrittenBeforeOneOpenPath: the one open path did not move
// anything on disk. The fixture is written the way Open and openSharded
// used to place shards — a single instance in the root of the filesystem, N
// instances under "shard-00" … with keys routed by shard.KeyShard, each
// sealed under its own counter — by opening core stores at those places
// directly, not through the code under test.
func TestOpensLayoutWrittenBeforeOneOpenPath(t *testing.T) {
	for _, n := range []int{1, 4} {
		fs := vfs.NewMem()
		platform, err := sgx.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		counters := make([]*sgx.MonotonicCounter, n)
		const keys = 600 // past every shard's 2 KiB memtable: runs on disk as well as a WAL tail
		key := func(k int) []byte { return []byte(fmt.Sprintf("key%04d", k)) }
		for i := range counters {
			counters[i] = sgx.NewMonotonicCounter()
			at := vfs.FS(fs)
			if n > 1 {
				if at, err = vfs.Sub(fs, fmt.Sprintf("shard-%02d", i)); err != nil {
					t.Fatal(err)
				}
			}
			cs, err := core.Open(core.Config{FS: at, Platform: platform, Counter: counters[i], MemtableSize: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < keys; k++ {
				if shard.KeyShard(key(k), n) == i {
					if _, err := core.Put(cs, key(k), []byte(fmt.Sprintf("v%d", k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cs.Close(); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(Options{FS: fs, Shards: n, Platform: platform, ShardCounters: counters})
		if err != nil {
			t.Fatalf("shards=%d: open the old layout: %v", n, err)
		}
		for k := 0; k < keys; k++ {
			res, err := s.Get(key(k))
			if err != nil || !res.Found || string(res.Value) != fmt.Sprintf("v%d", k) {
				t.Fatalf("shards=%d: %s = %+v, %v", n, key(k), res, err)
			}
		}
		if rows, err := s.Scan([]byte("key"), []byte("kez")); err != nil || len(rows) != keys {
			t.Fatalf("shards=%d: scan: %d rows, %v", n, len(rows), err)
		}
		if st := s.Stats(); st.DiskBytes == 0 || st.Shards != uint64(n) {
			t.Fatalf("shards=%d: opened as %d shards over %d bytes of runs", n, st.Shards, st.DiskBytes)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedStatsAggregation: the aggregate view sums per-shard pipelines,
// the per-shard view exposes the topology, and the gauges move.
func TestShardedStatsAggregation(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { testStatsAggregation(t, n) })
	}
}

func testStatsAggregation(t *testing.T, n int) {
	s, err := Open(shardedOptions(ModeP2, n))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	agg := s.Stats()
	if agg.Shards != uint64(n) {
		t.Fatalf("aggregate Shards = %d, want %d", agg.Shards, n)
	}
	per := s.ShardStats()
	if len(per) != n {
		t.Fatalf("ShardStats returned %d entries", len(per))
	}
	var sumSyncs, sumFlushes uint64
	activeShards := 0
	for i, ss := range per {
		if ss.Shards != 1 {
			t.Fatalf("per-shard entry %d covers %d shards", i, ss.Shards)
		}
		if ss.WALSyncs > 0 {
			activeShards++
		}
		sumSyncs += ss.WALSyncs
		sumFlushes += ss.Flushes
	}
	if activeShards < min(n, 2) {
		t.Fatalf("writes did not spread: only %d of %d shards synced (per-shard %v)", activeShards, n, per)
	}
	if agg.WALSyncs != sumSyncs {
		t.Fatalf("aggregate WALSyncs %d != per-shard sum %d", agg.WALSyncs, sumSyncs)
	}
	if agg.Flushes != sumFlushes || agg.Flushes == 0 {
		t.Fatalf("aggregate Flushes %d vs sum %d", agg.Flushes, sumFlushes)
	}
	if agg.VerifiedGets != 0 {
		t.Fatal("no gets issued yet VerifiedGets > 0")
	}
	if _, err := s.Get([]byte("key0001")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().VerifiedGets; got == 0 {
		t.Fatal("VerifiedGets did not move after a sharded get")
	}

	// A snapshot pins every shard.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SnapshotsOpen; got != uint64(n) {
		t.Fatalf("SnapshotsOpen = %d with one snapshot over %d shards", got, n)
	}
	snap.Close()
	if got := s.Stats().SnapshotsOpen; got != 0 {
		t.Fatalf("SnapshotsOpen = %d after close", got)
	}
}

// TestShardedAsyncCommitAndSync: CommitAsync acknowledgment and the Sync
// barrier across shards, plus the aggregate future outcome.
func TestShardedAsyncCommitAndSync(t *testing.T) {
	s, err := Open(shardedOptions(ModeP2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var futs []*CommitFuture
	for i := 0; i < 20; i++ {
		b := s.NewBatch()
		for j := 0; j < 8; j++ {
			b.Put([]byte(fmt.Sprintf("async%03d-%d", i, j)), []byte("v"))
		}
		fut, err := b.CommitAsync(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Ts(ctx); err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if err := s.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("future %d unresolved after Sync: %v", i, err)
		}
	}
	scan, err := s.Scan([]byte("async"), []byte("asynd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 160 {
		t.Fatalf("scan after async storm: %d results, want 160", len(scan))
	}
}

// TestShardedEncryption: the confidentiality layer composes with sharding
// (encrypted keys route by ciphertext hash — stable, since OPE is
// deterministic per store).
func TestShardedEncryption(t *testing.T) {
	opts := shardedOptions(ModeP2, 2)
	opts.Encryption = &EncryptionOptions{Mode: EncryptRange}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("user%03d", i)), []byte(fmt.Sprintf("secret%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Scan([]byte("user010"), []byte("user020"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 11 {
		t.Fatalf("encrypted sharded scan: %d results, want 11", len(res))
	}
	for _, r := range res {
		var idx int
		if _, err := fmt.Sscanf(string(r.Key), "user%03d", &idx); err != nil {
			t.Fatalf("bad decrypted key %q", r.Key)
		}
		if want := fmt.Sprintf("secret%d", idx); string(r.Value) != want {
			t.Fatalf("decrypted %q = %q, want %q", r.Key, r.Value, want)
		}
	}
}
