// Package blockcache implements the LSM read buffer: an LRU cache of
// decoded SSTable blocks. Its placement is the central design variable of
// the paper (§4.2): eLSM-P1 puts the buffer inside the enclave (suffering
// MEE overhead and enclave paging once it outgrows the EPC), while eLSM-P2
// places it outside (untrusted memory, directly accessible by the enclave,
// cheap hits).
//
// When placed inside, the cache owns an sgx.Region of its capacity; each
// cached block is assigned a stable virtual offset in the region, and every
// hit touches those pages — so under a simulated EPC (costmodel.Sim) a cache
// larger than it faults on most accesses, exactly the behaviour behind
// Figure 2 and Figure 6c.
package blockcache

import (
	"container/list"
	"sync"

	"elsm/internal/sgx"
)

// Key identifies a cached block.
type Key struct {
	FileNum  uint64
	BlockIdx int
}

// Cache is an LRU block cache. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	used     int
	entries  map[Key]*list.Element
	lru      *list.List // front = most recent

	region  *sgx.Region // non-nil when placed inside the enclave
	nextOff int

	hits, misses uint64
}

type entry struct {
	key  Key
	data []byte
	off  int // virtual offset in the enclave region (inside placement)
}

// New creates a cache of the given capacity in bytes. If enclave is non-nil
// the cache is placed inside the enclave (P1); otherwise it lives in
// untrusted memory (P2).
func New(capacity int, enclave *sgx.Enclave) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity: capacity,
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
	}
	if enclave != nil {
		c.region = enclave.Alloc(capacity)
	}
	return c
}

// Inside reports whether the cache is placed inside the enclave.
func (c *Cache) Inside() bool { return c.region != nil }

// Get returns the cached block, declaring the in-enclave access when the
// cache is inside the enclave (what MEE and paging are priced from).
func (c *Cache) Get(k Key) ([]byte, bool) {
	c.mu.Lock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	data, off := e.data, e.off
	region := c.region
	c.mu.Unlock()

	if region != nil {
		region.Touch(off, len(data))
	}
	return data, true
}

// Put inserts a block, evicting LRU entries to stay within capacity. Inside
// the enclave the insert is counted as a boundary copy-in (the second data
// copy S1 of §4.2).
func (c *Cache) Put(k Key, data []byte) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*entry)
		c.used += len(data) - len(e.data)
		e.data = data
		c.lru.MoveToFront(el)
	} else {
		if c.nextOff+len(data) > c.capacity {
			c.nextOff = 0
		}
		e := &entry{key: k, data: data, off: c.nextOff}
		c.nextOff += len(data)
		c.entries[k] = c.lru.PushFront(e)
		c.used += len(data)
	}
	for c.used > c.capacity && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*entry)
		c.used -= len(e.data)
		delete(c.entries, e.key)
		c.lru.Remove(back)
	}
	off := c.entries[k].Value.(*entry).off
	region := c.region
	c.mu.Unlock()

	if region != nil {
		region.CopyIn(off, len(data))
	}
}

// DropFile evicts all blocks of the given file (called when compaction
// deletes the file).
func (c *Cache) DropFile(fileNum uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.entries {
		if k.FileNum == fileNum {
			e := el.Value.(*entry)
			c.used -= len(e.data)
			delete(c.entries, k)
			c.lru.Remove(el)
		}
	}
}

// Stats returns (hits, misses, usedBytes).
func (c *Cache) Stats() (uint64, uint64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used
}

// Release frees the enclave region, if any.
func (c *Cache) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.region != nil {
		c.region.Free()
		c.region = nil
	}
}
