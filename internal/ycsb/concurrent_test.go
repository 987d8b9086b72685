package ycsb

import (
	"sync"
	"testing"

	"context"
	"elsm/internal/core"
)

// lockedKV makes the test mapKV safe for concurrent use.
type lockedKV struct {
	mu    sync.Mutex
	inner *mapKV
}

var _ DB = (*lockedKV)(nil)

func (l *lockedKV) Commit(ctx context.Context, ops []core.BatchOp) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Commit(ctx, ops)
}

func (l *lockedKV) GetAt(ctx context.Context, k []byte, tsq uint64) (core.Result, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.GetAt(ctx, k, tsq)
}

func (l *lockedKV) IterAt(ctx context.Context, a, b []byte, tsq uint64) core.Iterator {
	// Serialize the whole streamed read: materialize under the lock.
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.IterAt(ctx, a, b, tsq)
}

func TestRunConcurrentAggregates(t *testing.T) {
	kv := newMapKV()
	// mapKV is not concurrency-safe; wrap it.
	safe := &lockedKV{inner: kv}
	if err := Load(safe, 300, 16); err != nil {
		t.Fatal(err)
	}
	st, err := RunConcurrent(safe, WorkloadC(), 300, 4, 250, 42)
	if err != nil {
		t.Fatal(err)
	}
	if st.Threads != 4 || st.Ops != 1000 || st.Errors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Throughput <= 0 || st.MeanPerOp <= 0 {
		t.Fatalf("degenerate rates: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty string")
	}
}

func TestRunConcurrentSingleThreadFloor(t *testing.T) {
	safe := &lockedKV{inner: newMapKV()}
	if err := Load(safe, 50, 8); err != nil {
		t.Fatal(err)
	}
	st, err := RunConcurrent(safe, WorkloadB(), 50, 0 /* clamped to 1 */, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Threads != 1 || st.Ops != 100 {
		t.Fatalf("stats = %+v", st)
	}
}
