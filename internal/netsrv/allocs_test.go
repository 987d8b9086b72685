package netsrv

import (
	"fmt"
	"testing"

	"elsm"
	"elsm/internal/lsm"
	"elsm/internal/race"
)

// TestWireAllocs pins what one warm request costs in allocations end to end
// — netclient encode, loopback, netsrv decode, the store, netsrv encode,
// netclient decode — all in this process, so testing.AllocsPerRun counts
// both sides. The store is uninstrumented (trace sampling allocates) and
// never flushes during the measurement. With pooled request boxes, a
// reused client read buffer and responses carried by value, the wire adds
// almost nothing of its own: a Get costs the engine's read plus the
// client's copy of the value, a Put the engine's one-op CommitAsync (its
// future and the future's two channels) plus the server's batch: its
// one-op slice and one copy of key ‖ value. Admission builds no timer while
// the backlog has room. A change that adds an allocation per frame fails
// here before it shows on the gate.
func TestWireAllocs(t *testing.T) {
	const (
		maxGetAllocs = 6
		maxPutAllocs = 5
	)
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool puts at random: counts are not exact under it")
	}
	_, addr := startServer(t, elsm.Options{DisableInstrumentation: true}.WithGeometry(lsm.Geometry{MemtableSize: 64 << 20}), Config{})
	c := dial(t, addr)
	for i := 0; i < 100; i++ {
		if _, err := c.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	key, val := []byte("key0050"), []byte("value")
	allocs := func(f func()) float64 {
		for i := 0; i < 20; i++ { // warm the pools, buffers and channels
			f()
		}
		return testing.AllocsPerRun(500, f)
	}
	get := allocs(func() {
		if res, err := c.Get(key); err != nil || !res.Found {
			t.Fatalf("get: %+v, %v", res, err)
		}
	})
	put := allocs(func() {
		if _, err := c.Put(key, val); err != nil {
			t.Fatalf("put: %v", err)
		}
	})
	t.Logf("wire Get: %v allocs, wire Put: %v allocs", get, put)
	if get > maxGetAllocs {
		t.Errorf("a warm Get over the wire allocates %v, want ≤ %d", get, maxGetAllocs)
	}
	if put > maxPutAllocs {
		t.Errorf("a warm Put over the wire allocates %v, want ≤ %d", put, maxPutAllocs)
	}
}
