// Package blockcache implements the LSM read buffer: an LRU cache of SSTable
// data blocks, each held in a frame. Its placement is the central design
// variable of the paper (§4.2): eLSM-P1 puts the buffer inside the enclave
// (suffering MEE overhead and enclave paging once it outgrows the EPC), while
// eLSM-P2 places it outside (untrusted memory, directly accessible by the
// enclave, cheap hits).
//
// Frames. A miss reads the block straight into a frame the cache owns
// (Fill), taken from a free list of evicted and dropped frames when one is
// about the block's size, else allocated with its capacity rounded up to
// frameAlign. The cache is charged the block's length, not the frame's
// capacity, so what it holds — and its hit ratio — does not depend on which
// frame a block landed in.
//
// Spare frames. The free list always keeps up to freeFrames frames, and more
// while they fit in the capacity beside the cached blocks. So when
// compaction drops a file that readers use, its frames wait for the blocks
// of the tables that replace it instead of going to the garbage collector:
// the heap does not fill with frames freed after other blocks took new
// ones, half-empty spans whose count would vary with the timing of reads
// and compactions. A cache that has not missed since compaction last dropped
// files has no reader left to take them — a reader of the tables that
// replaced those files would have missed on their blocks — and goes back to
// freeFrames. The rule counts misses between drops, not time, so what a
// cache keeps does not depend on how fast compaction runs.
//
// Pins. A reader that copies what it needs out of a block and then lets go of
// it (a verified Get, a verified scan chunk) reads with Acquire and a Pins:
// the frame cannot be handed to another block until Pins.Release, even if it
// is evicted meanwhile. An evicted frame goes back to the free list only when
// its last pin is released and it was never handed out any other way.
//
// Sticky frames. Every other read (Get, and Acquire without a Pins) may keep
// the bytes as long as it likes, so it marks the frame sticky, and a sticky
// frame goes to the garbage collector on eviction, never to the free list.
// So do the buffers Put inserts, which are the caller's. No reader's
// correctness depends on pinning: pinning only earns the frame its
// recycling.
//
// When placed inside, the cache owns an sgx.Region of its capacity; each
// cached block is assigned a stable virtual offset in the region, and every
// hit touches those pages — so under a simulated EPC (costmodel.Sim) a cache
// larger than it faults on most accesses, exactly the behaviour behind
// Figure 2 and Figure 6c.
package blockcache

import (
	"slices"
	"sync"

	"elsm/internal/sgx"
)

const (
	// frameAlign rounds a new frame's capacity, so that a recycled frame fits
	// the next block of about its length. Above 1 KiB the allocator's size
	// classes are multiples of it, so the rounding costs no heap.
	frameAlign = 128
	// freeFrames is the free list any cache may keep, however full or idle.
	freeFrames = 32
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
	used     int // bytes of the cached blocks, by block length
	spare    int // capacity of the frames on the free list
	entries  map[Key]*frame
	lru      frame // sentinel of the LRU ring: lru.next is the most recent
	free     []*frame

	region  *sgx.Region // non-nil when placed inside the enclave
	nextOff int

	hits, misses, recycled uint64
	missesSeen             uint64 // misses at the last DropFiles
	pinned                 int    // frames with a pin
}

// frame is one block's memory and its place in the cache.
type frame struct {
	key    Key
	data   []byte
	off    int // virtual offset in the enclave region (inside placement)
	pins   int
	sticky bool // handed out unpinned, or not the cache's memory: never recycled
	cached bool // in entries and on the LRU ring

	prev, next *frame
}

// Pins is a reader's set of pinned frames, released together. The zero value
// is ready to use, and a reader reuses one from read to read. A Pins holds
// frames of one cache only.
type Pins struct {
	c      *Cache
	frames []*frame
}

// Stats are the cache's counters and occupancy.
type Stats struct {
	Hits, Misses uint64
	// Recycled counts misses read into a frame an evicted or dropped block
	// left free.
	Recycled uint64
	// Used is the bytes of the cached blocks; Pinned the frames a reader
	// holds pinned right now.
	Used, Pinned int
}

// New creates a cache of the given capacity in bytes. If enclave is non-nil
// the cache is placed inside the enclave (P1); otherwise it lives in
// untrusted memory (P2).
func New(capacity int, enclave *sgx.Enclave) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{capacity: capacity, entries: make(map[Key]*frame)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	if enclave != nil {
		c.region = enclave.Alloc(capacity)
	}
	return c
}

// Inside reports whether the cache is placed inside the enclave.
func (c *Cache) Inside() bool { return c.region != nil }

// Get returns the cached block, declaring the in-enclave access when the
// cache is inside the enclave (what MEE and paging are priced from). The
// caller may keep the bytes: the frame becomes sticky.
func (c *Cache) Get(k Key) ([]byte, bool) { return c.Acquire(k, nil) }

// Acquire is Get for a reader that lets go of the bytes: with pins non-nil,
// the frame is pinned into pins and stays the block's until pins.Release.
func (c *Cache) Acquire(k Key, pins *Pins) ([]byte, bool) {
	c.mu.Lock()
	f, ok := c.entries[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.moveToFront(f)
	c.hold(f, pins)
	data, off := f.data, f.off
	region := c.region
	c.mu.Unlock()

	if region != nil {
		region.Touch(off, len(data))
	}
	return data, true
}

// Fill reads the block k of the given length into a frame of the cache's own
// — read fills it, outside the lock — inserts it and returns its bytes,
// pinned into pins as Acquire would. If another reader filled k meanwhile,
// the frame goes back to the free list and the bytes returned are the cached
// ones. A read error inserts nothing.
func (c *Cache) Fill(k Key, length int, pins *Pins, read func([]byte) error) ([]byte, error) {
	c.mu.Lock()
	f := c.takeFree(length)
	c.mu.Unlock()
	if f == nil {
		f = &frame{data: make([]byte, length, (length+frameAlign-1)/frameAlign*frameAlign)}
	}
	f.data = f.data[:length]
	if err := read(f.data); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if have, ok := c.entries[k]; ok {
		c.putFree(f)
		f = have
		c.moveToFront(f)
	} else {
		f.key = k
		c.insert(f)
	}
	c.hold(f, pins)
	data, off := f.data, f.off
	region := c.region
	c.mu.Unlock()

	if region != nil {
		region.CopyIn(off, len(data))
	}
	return data, nil
}

// Put inserts a block the caller allocated, evicting LRU entries to stay
// within capacity. The bytes stay the caller's, so the frame is sticky.
// Inside the enclave the insert is counted as a boundary copy-in (the second
// data copy S1 of §4.2).
func (c *Cache) Put(k Key, data []byte) {
	c.mu.Lock()
	f, ok := c.entries[k]
	if ok {
		c.used += len(data) - len(f.data)
		f.data, f.sticky = data, true
		c.moveToFront(f)
		c.evict()
	} else {
		f = &frame{key: k, data: data, sticky: true}
		c.insert(f)
	}
	off := f.off
	region := c.region
	c.mu.Unlock()

	if region != nil {
		region.CopyIn(off, len(data))
	}
}

// DropFiles evicts every block of the given files, which compaction deleted
// together. Their frames are recycled as evicted ones are, unless the cache
// has not missed since the previous DropFiles: then the free list goes back
// to freeFrames.
func (c *Cache) DropFiles(fileNums ...uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, f := range c.entries {
		if slices.Contains(fileNums, k.FileNum) {
			c.remove(f)
		}
	}
	if c.misses == c.missesSeen {
		c.trimFree(0)
	}
	c.missesSeen = c.misses
}

// Release releases every frame pinned into p, under one lock: a frame whose
// last pin this was and that was evicted meanwhile is recycled. p is empty
// afterwards.
func (p *Pins) Release() {
	if len(p.frames) == 0 {
		return
	}
	c := p.c
	c.mu.Lock()
	for _, f := range p.frames {
		// A frame pinned twice by p is still pinned until its last entry
		// here, so nothing below touches a frame after it was recycled.
		if f.pins--; f.pins == 0 {
			c.pinned--
			if !f.cached {
				c.putFree(f)
			}
		}
	}
	c.mu.Unlock()
	clear(p.frames)
	p.frames = p.frames[:0]
}

// Stats returns the cache's counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Recycled: c.recycled, Used: c.used, Pinned: c.pinned}
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

// hold pins f into pins, or with pins nil marks it sticky. Caller holds mu.
func (c *Cache) hold(f *frame, pins *Pins) {
	if pins == nil {
		f.sticky = true
		return
	}
	if pins.c == nil {
		pins.c = c
	} else if pins.c != c {
		panic("blockcache: one Pins across two caches")
	}
	if f.pins++; f.pins == 1 {
		c.pinned++
	}
	pins.frames = append(pins.frames, f)
}

// insert adds f, a frame holding key f.key's block, at the front of the LRU
// ring, places it in the enclave region and evicts down to capacity. Caller
// holds mu.
func (c *Cache) insert(f *frame) {
	n := len(f.data)
	if c.nextOff+n > c.capacity {
		c.nextOff = 0
	}
	f.off, f.cached = c.nextOff, true
	c.nextOff += n
	c.entries[f.key] = f
	c.used += n
	c.pushFront(f)
	c.evict()
}

// evict removes least recently used blocks until the cache is within
// capacity, always keeping the most recent one, then trims the free list
// to the room left. Caller holds mu.
func (c *Cache) evict() {
	for c.used > c.capacity && c.lru.prev != c.lru.next {
		c.remove(c.lru.prev)
	}
	c.trimFree(c.capacity - c.used)
}

// remove takes f out of the cache; an unpinned frame is retired at once, a
// pinned one by the release of its last pin. Caller holds mu.
func (c *Cache) remove(f *frame) {
	delete(c.entries, f.key)
	c.used -= len(f.data)
	unlink(f)
	f.prev, f.next, f.cached = nil, nil, false
	if f.pins == 0 {
		c.putFree(f)
	}
}

func (c *Cache) moveToFront(f *frame) {
	unlink(f)
	c.pushFront(f)
}

func (c *Cache) pushFront(f *frame) {
	f.prev, f.next = &c.lru, c.lru.next
	f.prev.next, f.next.prev = f, f
}

func unlink(f *frame) { f.prev.next, f.next.prev = f.next, f.prev }

// putFree recycles f, a frame no reader pins and the cache no longer holds,
// unless it is sticky, or the free list holds freeFrames frames and f does
// not fit in the capacity beside them and the cached blocks: then the
// garbage collector takes it. Caller holds mu.
func (c *Cache) putFree(f *frame) {
	if f.sticky || len(c.free) >= freeFrames && c.used+c.spare+cap(f.data) > c.capacity {
		return
	}
	f.key = Key{}
	c.free = append(c.free, f)
	c.spare += cap(f.data)
}

// trimFree hands the oldest free frames beyond freeFrames to the garbage
// collector until the rest take no more than room bytes. Caller holds mu.
func (c *Cache) trimFree(room int) {
	n := 0
	for ; len(c.free)-n > freeFrames && c.spare > room; n++ {
		c.spare -= cap(c.free[n].data)
	}
	c.free = slices.Delete(c.free, 0, n)
}

// takeFree pops the most recently freed frame that fits a block of the given
// length without wasting more than an eighth of it, or returns nil. A miss no
// free frame fits drops the oldest, so frames of a length no longer read do
// not fill the list for good. Caller holds mu.
func (c *Cache) takeFree(length int) *frame {
	for i := len(c.free) - 1; i >= 0; i-- {
		f := c.free[i]
		if n := cap(f.data); n >= length && n-length <= length/8 {
			c.free = slices.Delete(c.free, i, i+1)
			c.spare -= cap(f.data)
			c.recycled++
			return f
		}
	}
	if len(c.free) > 0 {
		c.spare -= cap(c.free[0].data)
		c.free = slices.Delete(c.free, 0, 1)
	}
	return nil
}
