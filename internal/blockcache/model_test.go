package blockcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// blockBytes is block k's content in the model: a length that varies from
// block to block, so frames are recycled across lengths, and bytes that
// name the block.
func blockBytes(k Key) []byte {
	b := make([]byte, 200+(k.BlockIdx*97+int(k.FileNum)*31)%300)
	for i := range b {
		b[i] = byte(int(k.FileNum)*31 + k.BlockIdx*7 + i)
	}
	return b
}

// held is bytes a reader of the model holds, and the block they must show.
type held struct {
	k    Key
	data []byte
}

// TestCacheModel drives random sequences of Acquire (with a Fill on a miss),
// Release, Get, Put, Fill over a cached block (the reader who lost a fill
// race) and DropFile against the cache, from four readers that each keep a
// Pins. After every step: a pinned or sticky frame is never on the free
// list, nor a cached one, nor one twice; the pinned-frame gauge matches the
// pins outstanding; the cached blocks fit the capacity; and every byte a
// reader still holds — pinned, or handed out unpinned — shows its block. At
// the end every pin balances to zero.
func TestCacheModel(t *testing.T) {
	var recycled uint64
	for seed := int64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { recycled += runCacheModel(t, seed) })
	}
	if recycled == 0 {
		t.Fatal("no frame was ever recycled: the model exercised nothing")
	}
}

func runCacheModel(t *testing.T, seed int64) (recycled uint64) {
	rng := rand.New(rand.NewSource(seed))
	c := New(1500+rng.Intn(2000), nil)
	var (
		pins     [4]Pins
		pinned   [4][]held // what each reader holds pinned
		unpinned []held    // what readers keep for good (the latest 64 are checked)
	)
	key := func() Key { return Key{FileNum: uint64(1 + rng.Intn(3)), BlockIdx: rng.Intn(8)} }
	read := func(k Key) func([]byte) error {
		return func(dst []byte) error {
			if want := blockBytes(k); len(dst) != len(want) {
				t.Fatalf("fill of %v got a %d-byte frame for a %d-byte block", k, len(dst), len(want))
			}
			copy(dst, blockBytes(k))
			return nil
		}
	}
	acquire := func(k Key, p *Pins) []byte {
		if data, ok := c.Acquire(k, p); ok {
			return data
		}
		data, err := c.Fill(k, len(blockBytes(k)), p, read(k))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for step := 0; step < 400; step++ {
		r := rng.Intn(len(pins))
		var op string
		switch n := rng.Intn(20); {
		case n < 8:
			op = "acquire"
			k := key()
			pinned[r] = append(pinned[r], held{k, acquire(k, &pins[r])})
		case n < 12:
			op = "release"
			check(t, c, step, op, pins[:], pinned[:], unpinned)
			pins[r].Release()
			pinned[r] = nil
		case n < 14:
			op = "get"
			k := key()
			unpinned = append(unpinned, held{k, acquire(k, nil)})
		case n < 16:
			op = "put"
			k := key()
			data := blockBytes(k)
			c.Put(k, data)
			unpinned = append(unpinned, held{k, data})
		case n < 18:
			op = "lost fill race"
			k := key()
			data := acquire(k, &pins[r])
			again, err := c.Fill(k, len(data), &pins[r], read(k))
			if err != nil {
				t.Fatal(err)
			}
			pinned[r] = append(pinned[r], held{k, data}, held{k, again})
		default:
			op = "drop file"
			c.DropFile(uint64(1 + rng.Intn(3)))
		}
		if len(unpinned) > 64 {
			unpinned = unpinned[1:]
		}
		check(t, c, step, op, pins[:], pinned[:], unpinned)
	}
	for r := range pins {
		pins[r].Release()
	}
	check(t, c, -1, "final release", pins[:], nil, unpinned)
	st := c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("%d frames pinned after every reader released", st.Pinned)
	}
	return st.Recycled
}

// check holds the cache to the model's invariants; readers are the readers'
// Pins and pinned what each holds pinned right now.
func check(t *testing.T, c *Cache, step int, op string, readers []Pins, pinned [][]held, unpinned []held) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	onFree := map[*frame]bool{}
	if len(c.free) > freeFrames {
		fail("%d free frames, bound %d", len(c.free), freeFrames)
	}
	for _, f := range c.free {
		switch {
		case onFree[f]:
			fail("a frame is on the free list twice")
		case f.pins != 0:
			fail("a frame with %d pins is on the free list", f.pins)
		case f.sticky:
			fail("a sticky frame is on the free list")
		case f.cached:
			fail("a cached frame is on the free list")
		}
		onFree[f] = true
	}
	ring, used := 0, 0
	for f := c.lru.next; f != &c.lru; f = f.next {
		if c.entries[f.key] != f || !f.cached {
			fail("the LRU ring holds a frame the map does not")
		}
		ring++
		used += len(f.data)
	}
	if ring != len(c.entries) || used != c.used {
		fail("ring of %d frames and %d bytes, map of %d, used %d", ring, used, len(c.entries), c.used)
	}
	if c.used > c.capacity && ring > 1 {
		fail("%d bytes cached over a capacity of %d", c.used, c.capacity)
	}
	// Every pin a frame carries is one a reader holds, cached or evicted.
	pins := map[*frame]int{}
	for _, p := range readers {
		for _, f := range p.frames {
			pins[f]++
		}
	}
	for f, n := range pins {
		if f.pins != n {
			fail("a frame carries %d pins, readers hold %d", f.pins, n)
		}
	}
	for _, f := range c.entries {
		if f.pins != pins[f] {
			fail("a cached frame carries %d pins, readers hold %d", f.pins, pins[f])
		}
	}
	if c.pinned != len(pins) {
		fail("pinned gauge %d, readers pin %d frames", c.pinned, len(pins))
	}
	for _, hs := range pinned {
		for _, h := range hs {
			if !bytes.Equal(h.data, blockBytes(h.k)) {
				fail("bytes held pinned no longer show block %v", h.k)
			}
		}
	}
	for _, h := range unpinned {
		if !bytes.Equal(h.data, blockBytes(h.k)) {
			fail("bytes handed out unpinned no longer show block %v", h.k)
		}
	}
}
