package elsm

import (
	"fmt"
	"testing"

	"elsm/internal/core"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/shard"
)

// TestFacadeAddsNoAllocs guards the gate's tightest bounds (allocs_per_op,
// 5 %): deriving the conveniences must cost what calling the primitive
// costs. A Get allocates exactly what the engine's GetAt does; a Put what
// the engine's Commit of a prebuilt one-op batch does, plus that batch; and
// the shard router adds nothing to a one-op Commit — for one shard and for
// four, now that both are the same facade. The stores are warm,
// uninstrumented (trace sampling allocates on every 64th group) and never
// flush during the measurement.
func TestFacadeAddsNoAllocs(t *testing.T) {
	open := func(shards int) *Store {
		t.Helper()
		s, err := Open(Options{Shards: shards, MemtableSize: 64 << 20, CacheSize: 1 << 20, DisableInstrumentation: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		for i := 0; i < 500; i++ {
			if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put([]byte("key0001"), []byte("fresh")); err != nil {
			t.Fatal(err)
		}
		return s
	}
	allocs := func(f func()) float64 { f(); return testing.AllocsPerRun(200, f) }
	fail := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	key, val := []byte("key0250"), []byte("value")
	ops := []core.BatchOp{{Key: key, Value: val}}

	s := open(1)
	base := s.base()
	for _, k := range [][]byte{key, []byte("key0001"), []byte("absent")} { // in a run, in the memtable, nowhere
		k := k
		facade := allocs(func() { _, err := s.Get(k); fail(err) })
		prim := allocs(func() { _, err := base.GetAt(nil, k, record.MaxTs); fail(err) })
		if facade != prim {
			t.Errorf("Get(%s) allocates %v, the engine's GetAt %v", k, facade, prim)
		}
		t.Logf("Get(%s): %v allocs", k, facade)
	}
	facade := allocs(func() { _, err := s.Put(key, val); fail(err) })
	prim := allocs(func() { _, err := base.Commit(nil, ops); fail(err) })
	if facade != prim+1 {
		t.Errorf("Put allocates %v, the engine's one-op Commit %v (+1 for the batch)", facade, prim)
	}
	t.Logf("Put: %v allocs", facade)

	sharded := open(4)
	router := sharded.base().(*shard.Router)
	owner := router.Shard(shard.KeyShard(key, router.NumShards()))
	routed := allocs(func() { _, err := router.Commit(nil, ops); fail(err) })
	direct := allocs(func() { _, err := owner.Commit(nil, ops); fail(err) })
	if routed != direct {
		t.Errorf("a one-op Commit through the router allocates %v, on its shard %v", routed, direct)
	}
	put4 := allocs(func() { _, err := sharded.Put(key, val); fail(err) })
	if put4 != routed+1 {
		t.Errorf("Put on 4 shards allocates %v, the router's one-op Commit %v (+1 for the batch)", put4, routed)
	}
	get4 := allocs(func() { _, err := sharded.Get(key); fail(err) })
	if prim := allocs(func() { _, err := router.GetAt(nil, key, record.MaxTs); fail(err) }); get4 != prim {
		t.Errorf("Get on 4 shards allocates %v, the router's GetAt %v", get4, prim)
	}
	t.Logf("4 shards: Put %v allocs, Get %v", put4, get4)
}

// TestBoundaryMeterAllocatesNothing: the enclave every Get and Put crosses is
// a set of counters. On the product's enclave (no observer) a crossing, a
// counted copy and a declared region access allocate nothing.
func TestBoundaryMeterAllocatesNothing(t *testing.T) {
	e := sgx.New(sgx.Params{})
	r := e.Alloc(1 << 20)
	ran := 0
	for name, f := range map[string]func(){
		"ECall":        func() { e.ECall(func() { ran++ }) },
		"OCall":        func() { e.OCall(func() { ran++ }) },
		"Copy":         func() { e.Copy(4096) },
		"Region.Touch": func() { r.Touch(ran%(1<<19), 4096) },
	} {
		if got := testing.AllocsPerRun(200, f); got != 0 {
			t.Errorf("%s allocates %v", name, got)
		}
	}
}
