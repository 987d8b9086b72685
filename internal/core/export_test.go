package core

import (
	"elsm/internal/hashutil"
	"elsm/internal/record"
)

// get is lookup for a key the caller has not hashed.
func (rc *recordCache) get(root *hashutil.Hash, key []byte, tsq uint64) (Result, bool) {
	return rc.lookup(root, key, keyHash(key), tsq)
}

// verifyMembership is verifyHit for a key the caller has not hashed.
func (v *verifier) verifyMembership(key []byte, tsq uint64, rec record.Record, d runDigest) error {
	return v.verifyHit(key, keyHash(key), tsq, rec, d)
}

// put is insert for a record whose key the caller has not hashed.
func (rc *recordCache) put(root *hashutil.Hash, rec *record.Record) {
	rc.insert(root, rec, keyHash(rec.Key))
}

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
