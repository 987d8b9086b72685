package core

import (
	"sync/atomic"

	"elsm/internal/bloom"
)

// keyHash is the one 64-bit hash of a key a verified Get computes: its runs'
// key filters (bloom.Filter.MayContainHash), the record cache's set, tag and
// sketch, and the scratch slot and counter stripe the Get uses all take it.
// It is bloom.Hash, unseeded, so a run's filter is the same bytes whichever
// process builds it, and a filter sealed across restarts needs no seed
// beside it.
func keyHash(key []byte) uint64 { return bloom.Hash(key) }

// cacheLine is the span the scratch slots and the counter stripes are padded
// to, so that two cores writing different ones never write one line.
const cacheLine = 64

// scratchSlots is a bounded free list of scratch memory: slots that each
// hold one pointer, on a cache line of its own. get takes the first full
// slot it finds and put fills the first empty one, each probing from the
// slot the caller's hint picks — a Get's key hash — so callers on different
// cores mostly write different lines, and none takes a lock. A get that
// finds nothing returns nil, for the caller to allocate; a put that finds no
// room drops its scratch for the collector. So at most len(slots) scratches
// stay pooled.
type scratchSlots[T any] []scratchSlot[T]

type scratchSlot[T any] struct {
	p atomic.Pointer[T]
	_ [cacheLine - 8]byte
}

// slotOf maps a hint to a slot (or stripe) index below n: a Fibonacci
// multiply carries every bit of the hint into the high half it reads.
func slotOf(hint uint64, n int) int { return int((hint * 0x9e3779b97f4a7c15 >> 32) % uint64(n)) }

func (s scratchSlots[T]) get(hint uint64) *T {
	first := slotOf(hint, len(s))
	for i := range s {
		p := &s[(first+i)%len(s)].p
		if p.Load() != nil {
			if x := p.Swap(nil); x != nil {
				return x
			}
		}
	}
	return nil
}

func (s scratchSlots[T]) put(hint uint64, x *T) {
	first := slotOf(hint, len(s))
	for i := range s {
		p := &s[(first+i)%len(s)].p
		if p.Load() == nil && p.CompareAndSwap(nil, x) {
			return
		}
	}
}

// getStats is one stripe of the per-Get counters VerifyStats reports, alone
// on its cache line. A Get counts into the stripe its key hash picks;
// VerifyStatsSnapshot sums the stripes.
type getStats struct {
	gets, proofBytes, runsProbed, runsFiltered, runsCached atomic.Uint64
	_                                                      [cacheLine - 5*8]byte
}

// getStatStripes is how many stripes the per-Get counters are spread over.
const getStatStripes = 8

// stats returns the counter stripe for hint.
func (c *Store) stats(hint uint64) *getStats { return &c.getStats[slotOf(hint, len(c.getStats))] }
