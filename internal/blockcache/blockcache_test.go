package blockcache

import (
	"sync"
	"testing"

	"elsm/internal/sgx"
)

func TestPutGetOutside(t *testing.T) {
	c := New(1<<20, nil)
	if c.Inside() {
		t.Fatal("nil enclave produced inside placement")
	}
	k := Key{FileNum: 1, BlockIdx: 2}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("block data"))
	data, ok := c.Get(k)
	if !ok || string(data) != "block data" {
		t.Fatalf("get = %q, %v", data, ok)
	}
	hits, misses, used := c.Stats()
	if hits != 1 || misses != 1 || used != 10 {
		t.Fatalf("stats = %d %d %d", hits, misses, used)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(100, nil)
	blk := make([]byte, 40)
	c.Put(Key{1, 0}, blk)
	c.Put(Key{1, 1}, blk)
	// Touch block 0 so block 1 is LRU.
	c.Get(Key{1, 0})
	c.Put(Key{1, 2}, blk) // exceeds 100: evict LRU (block 1)
	if _, ok := c.Get(Key{1, 1}); ok {
		t.Fatal("LRU block survived eviction")
	}
	if _, ok := c.Get(Key{1, 0}); !ok {
		t.Fatal("recently used block evicted")
	}
	if _, ok := c.Get(Key{1, 2}); !ok {
		t.Fatal("new block missing")
	}
}

func TestDropFile(t *testing.T) {
	c := New(1<<20, nil)
	c.Put(Key{1, 0}, []byte("a"))
	c.Put(Key{1, 1}, []byte("b"))
	c.Put(Key{2, 0}, []byte("c"))
	c.DropFile(1)
	if _, ok := c.Get(Key{1, 0}); ok {
		t.Fatal("dropped file's block still cached")
	}
	if _, ok := c.Get(Key{2, 0}); !ok {
		t.Fatal("unrelated file's block dropped")
	}
}

// touchLog is an sgx.Observer recording which pages were touched.
type touchLog struct {
	pages map[int]int // page → touches
	freed int
}

func (l *touchLog) Touch(region uint64, off, n int) {
	for p := off / 4096; p <= (off+n-1)/4096; p++ {
		l.pages[p]++
	}
}

func (l *touchLog) Free(uint64) { l.freed++ }

func TestInsidePlacementChargesEnclave(t *testing.T) {
	log := &touchLog{pages: map[int]int{}}
	e := sgx.New(sgx.Params{Observer: log})
	c := New(64*4096, e)
	if !c.Inside() {
		t.Fatal("placement not inside")
	}
	if got := e.Stats().AllocatedBytes; got != 64*4096 {
		t.Fatalf("cache holds %d enclave bytes, want its capacity", got)
	}
	blk := make([]byte, 4096)
	for i := 0; i < 32; i++ {
		c.Put(Key{1, i}, blk)
	}
	if got := e.Stats().CopiedBytes; got != 32*4096 {
		t.Fatalf("32 inserts copied %d bytes into the enclave", got)
	}
	// Every block keeps its own pages of the region, so hits on a cache
	// larger than the EPC spread over more pages than the EPC holds (the
	// Figure 2 blow-up, once a costmodel.Sim pages them).
	for i := 0; i < 32; i++ {
		c.Get(Key{1, i})
	}
	if len(log.pages) != 32 {
		t.Fatalf("32 blocks touched %d distinct pages", len(log.pages))
	}
	for p, n := range log.pages {
		if n != 2 {
			t.Fatalf("page %d touched %d times, want once by Put and once by Get", p, n)
		}
	}
	c.Release()
	if log.freed != 1 || e.Stats().AllocatedBytes != 0 {
		t.Fatalf("after Release: %d regions freed, %d bytes held", log.freed, e.Stats().AllocatedBytes)
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(1<<20, nil)
	c.Put(Key{1, 0}, []byte("v1"))
	c.Put(Key{1, 0}, []byte("v2-longer"))
	data, ok := c.Get(Key{1, 0})
	if !ok || string(data) != "v2-longer" {
		t.Fatalf("get = %q", data)
	}
	_, _, used := c.Stats()
	if used != 9 {
		t.Fatalf("used = %d", used)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1<<16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			blk := make([]byte, 128)
			for i := 0; i < 500; i++ {
				k := Key{FileNum: uint64(g % 3), BlockIdx: i % 50}
				if _, ok := c.Get(k); !ok {
					c.Put(k, blk)
				}
			}
		}(g)
	}
	wg.Wait()
}
