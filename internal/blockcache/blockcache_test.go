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
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Used != 10 {
		t.Fatalf("stats = %+v", st)
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
	c.DropFiles(1)
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
	if got := e.Stats().EnclaveBytes; got != 64*4096 {
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
	if log.freed != 1 || e.Stats().EnclaveBytes != 0 {
		t.Fatalf("after Release: %d regions freed, %d bytes held", log.freed, e.Stats().EnclaveBytes)
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
	if used := c.Stats().Used; used != 9 {
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

// fillAll reads blocks 0..n-1 of file fn, each length bytes long, as a
// verified Get does: a pinned Acquire, a Fill on the miss, and the pins
// released at once.
func fillAll(t *testing.T, c *Cache, fn uint64, n, length int) {
	t.Helper()
	var pins Pins
	for i := 0; i < n; i++ {
		if _, ok := c.Acquire(Key{fn, i}, &pins); ok {
			continue
		}
		if _, err := c.Fill(Key{fn, i}, length, &pins, func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	pins.Release()
}

// TestDroppedFileFramesRecycled: the frames of a file compaction dropped
// hold the blocks of the file that replaces it, with no new frame; past
// freeFrames, the free list keeps only what fits beside the cached blocks,
// and nothing once the cache has not missed since the previous drop.
func TestDroppedFileFramesRecycled(t *testing.T) {
	const blocks, length = 2 * freeFrames, 1024 // a whole frame: no rounding
	c := New(3*blocks*length, nil)
	fillAll(t, c, 1, blocks, length)
	fillAll(t, c, 2, blocks, length)
	c.DropFiles(1)
	fillAll(t, c, 3, blocks, length)
	if st := c.Stats(); st.Recycled != blocks || len(c.free) != 0 {
		t.Fatalf("after replacing a dropped file: %+v, %d free frames; want all %d frames recycled", st, len(c.free), blocks)
	}

	// Full: blocks put in leave room for freeFrames free frames.
	c.DropFiles(2)
	for i := 0; i < 2*blocks; i++ {
		c.Put(Key{4, i}, make([]byte, length))
	}
	if st := c.Stats(); st.Used != c.capacity || len(c.free) != freeFrames {
		t.Fatalf("full cache: %+v, %d free frames; want %d", st, len(c.free), freeFrames)
	}

	// Idle: no miss since the last drop, however soon after it.
	c = New(2*blocks*length, nil)
	fillAll(t, c, 1, blocks, length)
	fillAll(t, c, 2, blocks, length)
	c.DropFiles(1)
	if len(c.free) != blocks {
		t.Fatalf("cache that missed since the last drop: %d free frames; want %d", len(c.free), blocks)
	}
	c.DropFiles(2)
	if len(c.free) != freeFrames {
		t.Fatalf("idle cache: %d free frames; want %d", len(c.free), freeFrames)
	}
}
