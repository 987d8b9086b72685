package core

// ChunkLen reports how many results the chunk a chunked iterator is serving
// from carries.
func ChunkLen(it Iterator) int { return len(it.(*chunkIter).buf) }

// emptyRecordCache forgets every record the store's verified-record cache
// holds (and so those of every store sharing it), so the next Get of any key
// proves its way through the runs again.
func (c *Store) emptyRecordCache() {
	rc := c.verify.records
	for i := range rc.sets {
		s := &rc.sets[i]
		s.mu.Lock()
		s.n, s.lookups, s.used, s.clock = 0, 0, 0, 0
		clear(s.sketch[:])
		s.mu.Unlock()
	}
}
