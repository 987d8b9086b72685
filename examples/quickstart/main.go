// Quickstart: open an authenticated eLSM-P2 store, commit an atomic write
// batch, read with verification, hold a verified point-in-time snapshot
// across concurrent writes, stream a completeness-verified range, and use
// pipelined async commits with a durability barrier — the Sessions v2 API.
package main

import (
	"context"
	"fmt"
	"log"

	"elsm"
)

func main() {
	// A zero-value Options opens an in-memory eLSM-P2 store.
	store, err := elsm.Open(elsm.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer store.Close()
	ctx := context.Background()

	// Writes batch into ONE enclave round trip: the whole group shares a
	// single engine lock acquisition, one grouped WAL append+fsync and at
	// most one trusted-counter bump — the high-throughput ingestion path.
	b := store.NewBatch()
	b.Put([]byte("alice"), []byte("balance=100"))
	b.Put([]byte("bob"), []byte("balance=250"))
	b.Put([]byte("carol"), []byte("balance=75"))
	ts, err := b.Commit()
	if err != nil {
		log.Fatalf("batch commit: %v", err)
	}
	fmt.Printf("committed 3 writes atomically @ ts=%d (durable)\n", ts)

	// GET verifies integrity and freshness before returning.
	res, err := store.Get([]byte("alice"))
	if err != nil {
		log.Fatalf("get: %v", err)
	}
	fmt.Printf("get alice -> %s (verified, ts=%d)\n", res.Value, res.Ts)

	// A Snapshot pins the trusted digest snapshot, its runs and the
	// memtable view: every read through it observes the SAME verified
	// state — a consistent multi-read session — no matter what commits,
	// flushes or compactions happen concurrently.
	snap, err := store.Snapshot()
	if err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	defer snap.Close()

	// Updates supersede; the live store proves you always see the newest.
	b.Put([]byte("alice"), []byte("balance=40"))
	b.Delete([]byte("carol"))
	if _, err := b.Commit(); err != nil {
		log.Fatalf("batch commit: %v", err)
	}
	res, _ = store.Get([]byte("alice"))
	old, _ := snap.Get([]byte("alice"))
	fmt.Printf("live alice -> %s, snapshot@%d alice -> %s (both verified)\n",
		res.Value, snap.Ts(), old.Value)
	gone, _ := store.Get([]byte("carol"))
	kept, _ := snap.Get([]byte("carol"))
	fmt.Printf("live carol found=%v, snapshot carol found=%v\n", gone.Found, kept.Found)

	// Async commits decouple acknowledgment from durability: the future's
	// Ts is available once the trusted timestamp is assigned and the group
	// is appended — while the engine pipelines the next group's WAL append
	// with the in-flight fsync — and Sync is the durability barrier.
	var futs []*elsm.CommitFuture
	for i := 0; i < 3; i++ {
		b.Put([]byte(fmt.Sprintf("event-%d", i)), []byte("queued"))
		fut, err := b.CommitAsync(ctx)
		if err != nil {
			log.Fatalf("async commit: %v", err)
		}
		ats, _ := fut.Ts(ctx)
		fmt.Printf("async commit %d acknowledged @ ts=%d\n", i, ats)
		futs = append(futs, fut)
	}
	if err := store.Sync(ctx); err != nil {
		log.Fatalf("sync: %v", err)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			log.Fatalf("async commit failed: %v", err)
		}
	}
	fmt.Println("sync barrier passed: all acknowledged commits durable")

	// Range reads stream through the verified iterator: each record's
	// proof is checked as it crosses the enclave boundary and range
	// completeness is verified incrementally, in bounded memory — and the
	// whole stream is a point-in-time observation. Contexts cancel or
	// deadline long scans (IterCtx/ScanCtx).
	fmt.Println("iter a..z (streaming, completeness-verified):")
	it := store.IterCtx(ctx, []byte("a"), []byte("z"))
	for it.Next() {
		fmt.Printf("  %s -> %s\n", it.Key(), it.Value())
	}
	if err := it.Close(); err != nil {
		// A tampering host surfaces here as elsm.ErrAuthFailed.
		log.Fatalf("iter: %v", err)
	}

	// Scan is the materialized form of the same verified stream; the
	// snapshot serves it too, repeatable bit for bit.
	results, err := snap.Scan([]byte("a"), []byte("z"))
	if err != nil {
		log.Fatalf("scan: %v", err)
	}
	fmt.Printf("snapshot scan a..z -> %d verified results (as of ts=%d)\n", len(results), snap.Ts())

	// Observability without reaching into internals: Stats covers the
	// engine, the enclave, and the new session gauges.
	st := store.Stats()
	fmt.Printf("stats: %d group commits, %d wal fsyncs, %d snapshots open, %d async in flight\n",
		st.GroupCommits, st.WALSyncs, st.SnapshotsOpen, st.AsyncCommitsInFlight)

	// Absent keys produce verified non-membership, not blind trust.
	miss, err := store.Get([]byte("mallory"))
	if err != nil {
		log.Fatalf("get: %v", err)
	}
	fmt.Printf("get mallory -> found=%v (non-membership proven)\n", miss.Found)
}
