package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"elsm/internal/core"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// smallCfg is the geometry used throughout: tiny memtables and tables so a
// few hundred writes exercise flush and compaction on every shard.
func smallCfg(fs vfs.FS) core.Config {
	return core.Config{
		FS:            fs,
		MemtableSize:  4 << 10,
		BlockSize:     512,
		TableFileSize: 4 << 10,
		LevelBase:     16 << 10,
		MaxLevels:     5,
		KeepVersions:  1,
	}
}

// openRouter builds an n-shard router of eLSM-P2 stores over the given
// per-shard filesystems (nil entries get a private MemFS), sharing one
// enclave the way the public layer does.
func openRouter(t *testing.T, fss []vfs.FS, mut func(i int, cfg *core.Config)) *Router {
	t.Helper()
	enclave := sgx.New(sgx.Params{})
	shards := make([]core.KV, len(fss))
	for i, fs := range fss {
		cfg := smallCfg(fs)
		cfg.Enclave = enclave
		if mut != nil {
			mut(i, &cfg)
		}
		s, err := core.Open(cfg)
		if err != nil {
			t.Fatalf("open shard %d: %v", i, err)
		}
		shards[i] = s
	}
	r, err := New(shards)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterRejectsBadShardCount(t *testing.T) {
	for _, n := range []int{0, 3, 6} {
		shards := make([]core.KV, n)
		if _, err := New(shards); err == nil {
			t.Fatalf("shard count %d accepted", n)
		}
	}
}

// TestRouterEndToEnd drives single-key ops, cross-shard batches, merged
// scans and snapshots through a 4-shard router and cross-checks every read
// against an in-memory model.
func TestRouterEndToEnd(t *testing.T) {
	r := openRouter(t, make([]vfs.FS, 4), nil)
	defer r.Close()

	model := map[string]string{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key%04d", i)
		val := fmt.Sprintf("val%d", i)
		if _, err := core.Put(r, []byte(key), []byte(val)); err != nil {
			t.Fatal(err)
		}
		model[key] = val
	}
	// Cross-shard batches: overwrite a slice of the key space atomically.
	for batch := 0; batch < 10; batch++ {
		var ops []core.BatchOp
		for i := batch * 20; i < batch*20+20; i++ {
			key := fmt.Sprintf("key%04d", i)
			val := fmt.Sprintf("batched%d-%d", batch, i)
			ops = append(ops, core.BatchOp{Key: []byte(key), Value: []byte(val)})
			model[key] = val
		}
		// Delete one key per batch through the same commit.
		dk := fmt.Sprintf("key%04d", batch*20+7)
		ops = append(ops, core.BatchOp{Key: []byte(dk), Delete: true})
		delete(model, dk)
		if _, err := r.Commit(nil, ops); err != nil {
			t.Fatal(err)
		}
	}

	for key, want := range model {
		res, err := core.Get(r, []byte(key))
		if err != nil || !res.Found || string(res.Value) != want {
			t.Fatalf("get %q = %q found=%v err=%v, want %q", key, res.Value, res.Found, err, want)
		}
	}
	if res, err := core.Get(r, []byte("key0007")); err != nil || res.Found {
		t.Fatalf("deleted key still found: %+v err=%v", res, err)
	}

	// Merged scan: complete, ordered, verified.
	scan, err := core.Scan(r, []byte("key"), []byte("kez"))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != len(model) {
		t.Fatalf("scan returned %d results, model holds %d", len(scan), len(model))
	}
	for i := 1; i < len(scan); i++ {
		if bytes.Compare(scan[i-1].Key, scan[i].Key) >= 0 {
			t.Fatalf("merged scan out of order at %d: %q ≥ %q", i, scan[i-1].Key, scan[i].Key)
		}
	}
	for _, res := range scan {
		if model[string(res.Key)] != string(res.Value) {
			t.Fatalf("scan %q = %q, want %q", res.Key, res.Value, model[string(res.Key)])
		}
	}

	// Snapshot: repeatable across churn on every shard.
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	before, err := scanSnap(snap, "key", "kez")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := core.Put(r, []byte(fmt.Sprintf("key%04d", i)), []byte("churned")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := scanSnap(snap, "key", "kez")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("snapshot drifted: %d -> %d results", len(before), len(after))
	}
	for i := range before {
		if !bytes.Equal(before[i].Key, after[i].Key) || !bytes.Equal(before[i].Value, after[i].Value) {
			t.Fatalf("snapshot drifted at %d: %q/%q -> %q/%q",
				i, before[i].Key, before[i].Value, after[i].Key, after[i].Value)
		}
	}
}

func scanSnap(snap core.Snapshot, start, end string) ([]core.Result, error) {
	it := snap.IterAt(nil, []byte(start), []byte(end), ^uint64(0))
	var out []core.Result
	for it.Next() {
		out = append(out, it.Result())
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// TestRouterCommitAsyncAggregate checks the aggregate future: acknowledged
// with the max per-shard timestamp, resolved durable, Sync as barrier.
func TestRouterCommitAsyncAggregate(t *testing.T) {
	r := openRouter(t, make([]vfs.FS, 2), nil)
	defer r.Close()
	ctx := context.Background()

	var ops []core.BatchOp
	for i := 0; i < 32; i++ {
		ops = append(ops, core.BatchOp{Key: []byte(fmt.Sprintf("async%03d", i)), Value: []byte("v")})
	}
	fut, err := r.CommitAsync(ctx, ops)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := fut.Ts(ctx)
	if err != nil || ts == 0 {
		t.Fatalf("aggregate ack: ts=%d err=%v", ts, err)
	}
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatalf("aggregate resolve after Sync: %v", err)
	}
	for i := 0; i < 32; i++ {
		res, err := core.Get(r, []byte(fmt.Sprintf("async%03d", i)))
		if err != nil || !res.Found {
			t.Fatalf("async record %d: %v found=%v", i, err, res.Found)
		}
	}
}

// TestCrossShardCancellationNeverTears: a context cancelled before a
// cross-shard commit is admitted withdraws the WHOLE batch — no shard
// applies its sub-batch — preserving the single-store withdrawal contract
// across shards (cancellation is checked only before the point of no
// return; after it the batch commits in full).
func TestCrossShardCancellationNeverTears(t *testing.T) {
	r := openRouter(t, make([]vfs.FS, 2), nil)
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []core.BatchOp{
		{Key: []byte("cancel-a"), Value: []byte("v")},
		{Key: []byte("cancel-b"), Value: []byte("v")},
		{Key: []byte("cancel-c"), Value: []byte("v")},
		{Key: []byte("cancel-d"), Value: []byte("v")},
	}
	if _, err := r.Commit(ctx, ops); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cross-shard Commit: %v", err)
	}
	if _, err := r.CommitAsync(ctx, ops); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cross-shard CommitAsync: %v", err)
	}
	res, err := core.Scan(r, []byte("cancel"), []byte("cancem"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("cancelled batch partially applied: %d records landed", len(res))
	}
}

// TestCrossShardCrashMidCommit is the crash-atomicity scenario: a
// fault-injected fsync on ONE shard kills a cross-shard batch stream
// mid-commit. The router must report the failure (never acknowledge a
// half-landed batch as committed), and after a crash + heal + reopen each
// shard must recover to a verified state in which every batch the router
// DID acknowledge is fully present on all shards, and every sub-batch is
// whole-or-absent (per-shard WAL group atomicity).
func TestCrossShardCrashMidCommit(t *testing.T) {
	const n = 2
	// Shard 0 writes a healthy MemFS; shard 1 sits behind a fault injector.
	healthyMem := vfs.NewMem()
	faultMem := vfs.NewMem()
	ffs := vfs.NewFault(faultMem)
	fss := []vfs.FS{healthyMem, ffs}

	platforms := make([]*sgx.Platform, n)
	counters := make([]*sgx.MonotonicCounter, n)
	r := openRouter(t, fss, func(i int, cfg *core.Config) {
		p, err := sgx.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		platforms[i] = p
		counters[i] = sgx.NewMonotonicCounter()
		cfg.Platform = p
		cfg.Counter = counters[i]
		cfg.CounterInterval = 8
	})

	// Commit cross-shard batches until the injected fault fires. Each batch
	// spans both shards by construction (keys probed via KeyShard).
	keyFor := func(shard, batch, i int) []byte {
		for salt := 0; ; salt++ {
			k := []byte(fmt.Sprintf("b%03d-s%d-i%d-%d", batch, shard, i, salt))
			if KeyShard(k, n) == shard {
				return k
			}
		}
	}
	acked := map[int]bool{}
	ffs.Arm(40)
	var failedBatch = -1
	for batch := 0; batch < 500; batch++ {
		var ops []core.BatchOp
		for i := 0; i < 2; i++ {
			ops = append(ops, core.BatchOp{Key: keyFor(0, batch, i), Value: []byte("v")})
			ops = append(ops, core.BatchOp{Key: keyFor(1, batch, i), Value: []byte("v")})
		}
		if _, err := r.Commit(nil, ops); err != nil {
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("batch %d: unexpected error class: %v", batch, err)
			}
			failedBatch = batch
			break
		}
		acked[batch] = true
	}
	if failedBatch < 0 {
		t.Fatal("fault never fired")
	}

	// Crash: abandon the router without Close, heal the disk, reopen each
	// shard from its surviving bytes with its own persisted root of trust.
	ffs.Disarm()
	survivors := []vfs.FS{healthyMem, faultMem}
	shards := make([]core.KV, n)
	for i := 0; i < n; i++ {
		cfg := smallCfg(survivors[i])
		cfg.Platform = platforms[i]
		cfg.Counter = counters[i]
		cfg.CounterInterval = 8
		s, err := core.Open(cfg)
		if err != nil {
			// Refusing recovery outright is acceptable for the FAULTED
			// shard (fail closed)...
			if i == 1 {
				t.Logf("faulted shard refused recovery (fail-closed): %v", err)
				return
			}
			// ...but the healthy shard must recover.
			t.Fatalf("healthy shard %d refused recovery: %v", i, err)
		}
		shards[i] = s
	}
	r2, err := New(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	// Every acknowledged batch must be fully present on BOTH shards: the
	// router only acknowledged after every shard's group was durable.
	for batch := range acked {
		for shard := 0; shard < n; shard++ {
			for i := 0; i < 2; i++ {
				key := keyFor(shard, batch, i)
				res, err := core.Get(r2, key)
				if err != nil {
					t.Fatalf("verified read of acked batch %d key %q failed: %v", batch, key, err)
				}
				if !res.Found {
					t.Fatalf("acked batch %d lost key %q on shard %d after crash", batch, key, shard)
				}
			}
		}
	}
	// The failed batch obeys per-shard atomicity: on each shard its
	// sub-batch is whole or absent.
	for shard := 0; shard < n; shard++ {
		found := 0
		for i := 0; i < 2; i++ {
			res, err := core.Get(r2, keyFor(shard, failedBatch, i))
			if err != nil {
				t.Fatalf("read of failed batch on shard %d: %v", shard, err)
			}
			if res.Found {
				found++
			}
		}
		if found != 0 && found != 2 {
			t.Fatalf("failed batch torn WITHIN shard %d: %d of 2 keys present", shard, found)
		}
	}
}

// TestRouterConcurrentWritersAcrossShards is the -race stress: concurrent
// writers issuing single-key puts, cross-shard sync batches and async
// commits while readers run merged scans and snapshots. Run with -race in
// CI.
func TestRouterConcurrentWritersAcrossShards(t *testing.T) {
	r := openRouter(t, make([]vfs.FS, 4), nil)
	defer r.Close()
	ctx := context.Background()

	const writers = 8
	const opsEach = 60
	var wg sync.WaitGroup
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				switch i % 3 {
				case 0:
					if _, err := core.Put(r, []byte(fmt.Sprintf("w%d-key%04d", w, i)), []byte("v")); err != nil {
						errCh <- err
						return
					}
				case 1:
					var ops []core.BatchOp
					for j := 0; j < 6; j++ {
						ops = append(ops, core.BatchOp{
							Key:   []byte(fmt.Sprintf("w%d-batch%04d-%d", w, i, j)),
							Value: []byte("v"),
						})
					}
					if _, err := r.Commit(ctx, ops); err != nil {
						errCh <- err
						return
					}
				default:
					var ops []core.BatchOp
					for j := 0; j < 6; j++ {
						ops = append(ops, core.BatchOp{
							Key:   []byte(fmt.Sprintf("w%d-async%04d-%d", w, i, j)),
							Value: []byte("v"),
						})
					}
					fut, err := r.CommitAsync(ctx, ops)
					if err != nil {
						errCh <- err
						return
					}
					if _, err := fut.Ts(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	// Two readers: merged scans and pinned snapshots under the write storm.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for rd := 0; rd < 2; rd++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := r.Snapshot()
				if err != nil {
					errCh <- err
					return
				}
				a, err := scanSnap(snap, "w", "x")
				if err != nil {
					snap.Close()
					errCh <- err
					return
				}
				b, err := scanSnap(snap, "w", "x")
				if err != nil {
					snap.Close()
					errCh <- err
					return
				}
				snap.Close()
				if len(a) != len(b) {
					errCh <- fmt.Errorf("snapshot not repeatable: %d vs %d results", len(a), len(b))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	if err := r.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	// Everything landed: cross-check a sample and the total count.
	scan, err := core.Scan(r, []byte("w"), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	want := writers * (opsEach/3*6*2 + (opsEach+2)/3)
	if len(scan) != want {
		t.Fatalf("scan after storm: %d results, want %d", len(scan), want)
	}
}
