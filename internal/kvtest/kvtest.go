// Package kvtest is the conformance suite of core.KV: one table of contract
// checks run against every implementation, imported from the external test
// packages of core, shard and eleos. A new front end or baseline implements
// the seven primitives, adds an Opener, and is held to the same contract.
package kvtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"elsm/internal/core"
	"elsm/internal/kvtest/model"
	"elsm/internal/lsm"
	"elsm/internal/record"
)

// Opener names one core.KV implementation and opens an empty instance of it.
type Opener struct {
	Name string
	// Open returns an empty store, small enough that a few hundred writes
	// flush and compact and a stream is many chunks (see SmallConfig).
	Open func(t testing.TB) core.KV
	// UpdateInPlace marks a store that keeps one version per key (the Eleos
	// comparator): Snapshot is refused, a historical read sees the live
	// version only if it is old enough, and it serves one goroutine.
	UpdateInPlace bool
	// PerShardTs marks a store whose record timestamps are comparable only
	// key by key (the shard router): a tsq cuts no consistent range, and
	// Snapshot.Ts is a commit sequence of the store's own.
	PerShardTs bool
}

// Run holds every opener to the contract.
func Run(t *testing.T, openers ...Opener) {
	checks := []struct {
		name string
		fn   func(*testing.T, Opener)
	}{
		{"CancelledCommitWritesNothing", cancelledCommit},
		{"EmptyCommit", emptyCommit},
		{"CommitIsAtomic", commitIsAtomic},
		{"GetAtHistory", getAtHistory},
		{"IterAt", iterAt},
		{"SnapshotIsRepeatable", snapshotIsRepeatable},
		{"CommitAsyncAndSync", commitAsyncAndSync},
		{"UseAfterClose", useAfterClose},
	}
	for _, o := range openers {
		for _, c := range checks {
			o, c := o, c
			t.Run(o.Name+"/"+c.name, func(t *testing.T) { c.fn(t, o) })
		}
	}
}

func key(i int) []byte         { return []byte(fmt.Sprintf("key%05d", i)) }
func val(gen, i int) []byte    { return []byte(fmt.Sprintf("gen%03d-%05d", gen, i)) }
func all() (start, end []byte) { return []byte("a"), []byte("z") }

func put(t *testing.T, kv core.KV, k, v []byte) uint64 {
	t.Helper()
	ts, err := core.Put(kv, k, v)
	if err != nil {
		t.Fatalf("put %q: %v", k, err)
	}
	return ts
}

func scan(t *testing.T, r core.Reader) []core.Result {
	t.Helper()
	start, end := all()
	out, err := core.Scan(r, start, end)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

func sameRows(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) || a[i].Ts != b[i].Ts {
			return false
		}
	}
	return true
}

// cancelledCommit: a ctx cancelled before Commit (or CommitAsync) writes
// nothing and returns ctx.Err().
func cancelledCommit(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	put(t, kv, key(0), val(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := []core.BatchOp{{Key: key(1), Value: val(0, 1)}, {Key: key(0), Delete: true}}
	if _, err := kv.Commit(ctx, ops); !errors.Is(err, context.Canceled) {
		t.Fatalf("Commit under a cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := kv.CommitAsync(ctx, ops); !errors.Is(err, context.Canceled) {
		t.Fatalf("CommitAsync under a cancelled ctx = %v, want context.Canceled", err)
	}
	if got := scan(t, kv); len(got) != 1 || !bytes.Equal(got[0].Key, key(0)) {
		t.Fatalf("a cancelled commit left %d rows behind, want the one written before it", len(got))
	}
}

// emptyCommit: an empty batch writes nothing and returns no error.
func emptyCommit(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	ts := put(t, kv, key(0), val(0, 0))
	if _, err := kv.Commit(context.Background(), nil); err != nil {
		t.Fatalf("empty Commit: %v", err)
	}
	fut, err := kv.CommitAsync(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty CommitAsync: %v", err)
	}
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatalf("empty CommitAsync future: %v", err)
	}
	if got := scan(t, kv); len(got) != 1 || got[0].Ts != ts {
		t.Fatalf("empty commits changed the store: %+v", got)
	}
}

// commitIsAtomic: a multi-op Commit returns the timestamp of its last
// record, and no snapshot ever shows part of one.
func commitIsAtomic(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	const width = 12
	batch := func(gen int) []core.BatchOp {
		ops := make([]core.BatchOp, width)
		for i := range ops {
			ops[i] = core.BatchOp{Key: key(i), Value: val(gen, i)}
		}
		return ops
	}
	ts, err := kv.Commit(context.Background(), batch(0))
	if err != nil {
		t.Fatal(err)
	}
	var newest uint64
	for i := 0; i < width; i++ {
		res, err := core.Get(kv, key(i))
		if err != nil || !res.Found || !bytes.Equal(res.Value, val(0, i)) {
			t.Fatalf("key %d after the batch = %+v, %v", i, res, err)
		}
		if res.Ts > newest {
			newest = res.Ts
		}
	}
	if ts != newest {
		t.Fatalf("Commit returned ts %d, the batch's newest record carries %d", ts, newest)
	}
	if o.UpdateInPlace {
		return
	}
	// Snapshots taken while batches land see one generation, whole. The
	// writer commits a batch per token, and each round grants it
	// writesPerRound more: writes overlap every snapshot, and the keys'
	// history — every version is kept, and a version's proof lists every
	// newer one — stays bounded however fast the writer runs.
	const writesPerRound = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	tokens := make(chan struct{}, writesPerRound) // one round's grant
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			case <-tokens:
			}
			if _, err := kv.Commit(nil, batch(gen)); err != nil {
				t.Errorf("batch %d: %v", gen, err)
				return
			}
		}
	}()
	for round := 0; round < 50; round++ {
		for i := 0; i < writesPerRound; i++ {
			select {
			case tokens <- struct{}{}:
			default: // the writer has not spent the last grant yet
			}
		}
		snap, err := kv.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rows := scan(t, snap)
		snap.Close()
		if len(rows) != width {
			t.Fatalf("snapshot shows %d of %d keys", len(rows), width)
		}
		for _, r := range rows {
			if !bytes.Equal(r.Value[:6], rows[0].Value[:6]) {
				t.Fatalf("snapshot tore a batch: %q beside %q", rows[0].Value, r.Value)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// getAtHistory: GetAt(tsq) returns the newest version ≤ tsq, and not-found
// below the first.
func getAtHistory(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	put(t, kv, key(1), val(0, 1)) // so that key 0's first timestamp is not the store's first
	ts1 := put(t, kv, key(0), val(1, 0))
	get := func(tsq uint64) core.Result {
		t.Helper()
		res, err := kv.GetAt(context.Background(), key(0), tsq)
		if err != nil {
			t.Fatalf("GetAt(%d): %v", tsq, err)
		}
		return res
	}
	if res := get(ts1 - 1); res.Found {
		t.Fatalf("GetAt below the first version found %+v", res)
	}
	for _, tsq := range []uint64{ts1, ts1 + 1, record.MaxTs} {
		if res := get(tsq); !res.Found || res.Ts != ts1 || !bytes.Equal(res.Value, val(1, 0)) {
			t.Fatalf("GetAt(%d) = %+v, want the version at %d", tsq, res, ts1)
		}
	}
	ts2 := put(t, kv, key(0), val(2, 0))
	if ts2 <= ts1 {
		t.Fatalf("timestamps went backwards: %d then %d", ts1, ts2)
	}
	if res := get(ts2); !res.Found || res.Ts != ts2 || !bytes.Equal(res.Value, val(2, 0)) {
		t.Fatalf("GetAt(%d) = %+v, want the version at %d", ts2, res, ts2)
	}
	switch res := get(ts1); {
	case o.UpdateInPlace && res.Found:
		t.Fatalf("an update-in-place store served %+v at %d after overwriting it", res, ts1)
	case !o.UpdateInPlace && (!res.Found || res.Ts != ts1 || !bytes.Equal(res.Value, val(1, 0))):
		t.Fatalf("GetAt(%d) after an overwrite = %+v, want the version at %d", ts1, res, ts1)
	}
	ts3, err := core.Delete(kv, key(0))
	if err != nil {
		t.Fatal(err)
	}
	if res := get(record.MaxTs); res.Found {
		t.Fatalf("a deleted key reads %+v", res)
	}
	if res := get(ts3 - 1); !o.UpdateInPlace && (!res.Found || res.Ts != ts2) {
		t.Fatalf("GetAt below the tombstone = %+v, want the version at %d", res, ts2)
	}
	if res, err := kv.GetAt(cancelled(), key(1), record.MaxTs); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetAt under a cancelled ctx = %+v, %v", res, err)
	}
}

func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// iterAt: the stream is ordered and complete against a model — whichever
// sources hold the data — honours tsq, stops with ctx.Err() when cancelled
// mid-stream, and stays stopped once closed.
func iterAt(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	const n = 300
	var m model.Model
	write := func(k, v []byte) uint64 {
		ts, err := kv.Commit(nil, []core.BatchOp{{Key: k, Value: v, Delete: v == nil}})
		if err != nil {
			t.Fatal(err)
		}
		m.Put(record.Record{Key: k, Ts: ts, Kind: map[bool]record.Kind{true: record.KindDelete, false: record.KindSet}[v == nil], Value: v})
		return ts
	}
	var mid uint64
	for i := 0; i < n; i++ {
		if ts := write(key((i*7)%n), val(0, i)); i == n/2 { // not in key order
			mid = ts
		}
	}
	for i := 0; i < n; i += 9 { // tombstones must not surface
		write(key(i), nil)
	}
	if f, ok := kv.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 5 { // and the memtable shadows the runs
		write(key(i), val(1, i))
	}
	check := func(it core.Iterator, want []record.Record) {
		t.Helper()
		seen := 0
		for ; it.Next(); seen++ {
			if r := it.Result(); seen >= len(want) || !bytes.Equal(r.Key, want[seen].Key) || !bytes.Equal(r.Value, want[seen].Value) {
				t.Fatalf("stream row %d is %q = %q; the model has %d rows", seen, r.Key, r.Value, len(want))
			}
		}
		if err := it.Close(); err != nil {
			t.Fatalf("stream: %v", err)
		}
		if seen != len(want) {
			t.Fatalf("stream delivered %d rows, model has %d", seen, len(want))
		}
		if it.Next() {
			t.Fatal("Next after Close returned true")
		}
	}
	start, end := all()
	rows := m.Scan(start, end, record.MaxTs)
	check(kv.IterAt(context.Background(), start, end, record.MaxTs), rows)
	check(kv.IterAt(nil, start, end, record.MaxTs), rows)
	if !o.UpdateInPlace && !o.PerShardTs {
		check(kv.IterAt(nil, start, end, mid), m.Scan(start, end, mid))
	}
	// A sub-range is inclusive at both ends.
	lo, hi := rows[len(rows)/4].Key, rows[3*len(rows)/4].Key
	check(kv.IterAt(nil, lo, hi, record.MaxTs), m.Scan(lo, hi, record.MaxTs))

	// Cancelled mid-stream: what was fetched may still arrive (per shard:
	// the chunk in hand and the one prefetched beside it, from each of two
	// sources), then the stream stops with the ctx's error.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := kv.IterAt(ctx, start, end, record.MaxTs)
	count := 0
	for it.Next() {
		count++
		cancel()
	}
	if limit := 4 * (4 * ChunkKeys); count > limit {
		t.Fatalf("cancelled after the first row, the stream still delivered %d (limit %d)", count, limit)
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("cancelled stream Err = %v, want context.Canceled", it.Err())
	}
	if err := it.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream Close = %v, want context.Canceled", err)
	}
	it = kv.IterAt(cancelled(), start, end, record.MaxTs)
	if it.Next() {
		t.Fatal("a stream opened under a cancelled ctx delivered a row")
	}
	if err := it.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("a stream opened under a cancelled ctx closed with %v", err)
	}
}

// snapshotIsRepeatable: a snapshot reads the same across later commits, a
// flush and compactions, and its Ts bounds what it shows.
func snapshotIsRepeatable(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	if o.UpdateInPlace {
		if snap, err := kv.Snapshot(); err == nil {
			snap.Close()
			t.Fatal("an update-in-place store handed out a snapshot")
		}
		return
	}
	const n = 200
	var last uint64
	for i := 0; i < n; i++ {
		last = put(t, kv, key(i), val(0, i))
	}
	snap, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if !o.PerShardTs && snap.Ts() != last {
		t.Fatalf("snapshot Ts = %d, the last commit before it returned %d", snap.Ts(), last)
	}
	before := scan(t, snap)
	if len(before) != n {
		t.Fatalf("snapshot shows %d of %d keys", len(before), n)
	}
	// Overwrite everything several times over, delete some, add more:
	// enough to flush and compact underneath the snapshot.
	for gen := 1; gen <= 6; gen++ {
		for i := 0; i < 2*n; i++ {
			put(t, kv, key(i), val(gen, i))
		}
	}
	for i := 0; i < n; i += 3 {
		if _, err := core.Delete(kv, key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if f, ok := kv.(interface{ Flush() error }); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if after := scan(t, snap); !sameRows(before, after) {
		t.Fatalf("snapshot scan changed underneath: %d rows then %d", len(before), len(after))
	}
	for i := 0; i < 2*n; i += 17 {
		res, err := snap.GetAt(nil, key(i), record.MaxTs)
		if err != nil {
			t.Fatal(err)
		}
		if want := i < n; res.Found != want || (want && !bytes.Equal(res.Value, val(0, i))) {
			t.Fatalf("snapshot Get(key %d) = %+v", i, res)
		}
		if !o.PerShardTs && res.Ts > snap.Ts() {
			t.Fatalf("snapshot at %d shows a record at %d", snap.Ts(), res.Ts)
		}
	}
	later, err := kv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer later.Close()
	if later.Ts() <= snap.Ts() {
		t.Fatalf("a snapshot after more commits has Ts %d, not above %d", later.Ts(), snap.Ts())
	}
	if live, pinned := scan(t, kv), scan(t, later); !sameRows(live, pinned) {
		t.Fatalf("a fresh snapshot (%d rows) differs from the live store (%d rows)", len(pinned), len(live))
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second snapshot Close: %v", err)
	}
}

// commitAsyncAndSync: the future is acknowledged (timestamp known) no later
// than it resolves, and Sync closes the window.
func commitAsyncAndSync(t *testing.T, o Opener) {
	kv := o.Open(t)
	defer kv.Close()
	ctx := context.Background()
	var futs []*core.CommitFuture
	for i := 0; i < 20; i++ {
		fut, err := kv.CommitAsync(ctx, []core.BatchOp{{Key: key(i), Value: val(0, i)}, {Key: key(100 + i), Value: val(0, 100+i)}})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	var acked []uint64
	for _, fut := range futs {
		ts, err := fut.Ts(ctx)
		if err != nil || ts == 0 {
			t.Fatalf("acknowledgment = %d, %v", ts, err)
		}
		acked = append(acked, ts)
	}
	if err := kv.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	// Durable means applied: everything acknowledged is visible now, whether
	// or not its future has been waited on.
	if got := scan(t, kv); len(got) != 40 {
		t.Fatalf("%d of 40 rows visible after Sync", len(got))
	}
	for i, fut := range futs {
		if ts, err := fut.Wait(ctx); err != nil || ts != acked[i] {
			t.Fatalf("commit %d resolved to %d, %v after acknowledging %d", i, ts, err, acked[i])
		}
	}
	if err := kv.Sync(cancelled()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sync under a cancelled ctx = %v", err)
	}
}

// useAfterClose: every primitive of a closed store fails with the closed
// error; none panics.
func useAfterClose(t *testing.T, o Opener) {
	kv := o.Open(t)
	put(t, kv, key(0), val(0, 0))
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	ops := []core.BatchOp{{Key: key(1), Value: val(0, 1)}, {Key: key(2), Value: val(0, 2)}}
	closed := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, lsm.ErrClosed) {
			t.Errorf("%s on a closed store = %v, want lsm.ErrClosed", what, err)
		}
	}
	_, err := kv.Commit(nil, ops[:1])
	closed("Commit", err)
	_, err = kv.Commit(nil, ops)
	closed("multi-op Commit", err)
	fut, err := kv.CommitAsync(nil, ops)
	if err == nil {
		_, err = fut.Wait(nil)
	}
	closed("CommitAsync", err)
	closed("Sync", kv.Sync(nil))
	_, err = kv.GetAt(nil, key(0), record.MaxTs)
	closed("GetAt", err)
	start, end := all()
	it := kv.IterAt(nil, start, end, record.MaxTs)
	if it.Next() {
		t.Error("a closed store streamed a row")
	}
	closed("IterAt", it.Close())
	if !o.UpdateInPlace {
		snap, err := kv.Snapshot()
		if err == nil {
			snap.Close()
		}
		closed("Snapshot", err)
	}
}

// ChunkKeys is SmallConfig's IterChunkKeys.
const ChunkKeys = 8

// SmallConfig is the engine geometry the openers share: tiny memtables and
// tables, so a few hundred writes flush and compact; short iterator chunks;
// history retained.
func SmallConfig() core.Config {
	return core.Config{
		Geometry: lsm.Geometry{
			MemtableSize:  4 << 10,
			BlockSize:     512,
			TableFileSize: 4 << 10,
			LevelBase:     16 << 10,
			MaxLevels:     5,
		},
		IterChunkKeys: ChunkKeys,
	}
}
