package core

import (
	"errors"
	"slices"
	"sync/atomic"

	"elsm/internal/bloom"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
)

// runFilter is the Bloom filter the enclave built over one run's keys, as it
// hashed them into the run's Merkle tree (outputTree.keyFilter), and the
// enclave region its bytes are charged to while the run is in the view.
type runFilter struct {
	keys bloom.Filter
	mem  *sgx.Region
}

// excludes reports whether the filter rules out of the run the key whose
// keyHash is kh. The zero runFilter — a run with no filter — rules nothing
// out.
func (f runFilter) excludes(kh uint64) bool {
	return f.keys != nil && !f.keys.MayContainHash(kh)
}

// withFilters returns a copy of the view's filters without those of the
// runs in drop, whose regions it frees, and with f for run id, charged to
// the enclave, unless f is nil. Caller holds c.mu and publishes the result.
func (c *Store) withFilters(tv *trustedView, drop []uint64, id uint64, f bloom.Filter) map[uint64]runFilter {
	out := make(map[uint64]runFilter, len(tv.filters)+1)
	for rid, rf := range tv.filters {
		out[rid] = rf
	}
	for _, rid := range drop {
		if rf, ok := out[rid]; ok {
			rf.mem.Free()
			delete(out, rid)
		}
	}
	if f != nil {
		out[id] = runFilter{keys: f, mem: c.enclave.Alloc(len(f))}
	}
	return out
}

// startFilterRebuild starts, off the request path, one verified pass per run
// Open recovered — from the store's own files, a checkpoint restore or a
// follower bootstrap alike — to give it back its key filter, which is never
// sealed. Until a run's pass publishes one, Gets prove every lookup in it.
// Open does not wait for the passes; Close stops and waits for them.
func (c *Store) startFilterRebuild() {
	runs := c.engine.Runs() // read order: the runs every Get consults first go first
	if len(runs) == 0 {
		return
	}
	c.rebuildDone.Add(1)
	go func() {
		defer c.rebuildDone.Done()
		for _, r := range runs {
			if c.rebuildStop.Load() {
				return
			}
			if c.holdRebuild != nil {
				c.holdRebuild(r.ID)
			}
			c.enclave.ECall(func() { c.rebuildFilter(r.ID) })
		}
	}()
}

// stopFilterRebuild stops the filter rebuild, if one runs, and waits for it.
func (c *Store) stopFilterRebuild() {
	c.rebuildStop.Store(true)
	c.rebuildDone.Wait()
}

// rebuildFilter is one run's pass: it streams the run through replayRun and
// publishes the filter only if the reconstructed digest is the sealed one
// and the run is still live. Otherwise — the host changed the run's bytes,
// a compaction replaced it, the store is closing — it publishes nothing.
func (c *Store) rebuildFilter(id uint64) {
	want, ok := c.snapshotDigests()[id]
	if !ok || want.NumLeaves == 0 {
		return
	}
	var snap lsm.Snapshot
	c.engine.AcquireSnapshotInto(&snap, false)
	defer snap.Release()
	i := slices.IndexFunc(snap.Runs(), func(r lsm.RunRef) bool { return r.ID == id })
	if snap.Err() != nil || i < 0 {
		return
	}
	h, err := replayRun(&snap, i, id, want.NumLeaves, &c.rebuildStop, c.rebuildTamper)
	if err != nil {
		return
	}
	defer h.release()
	if !h.inputs[0].matches(want) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tv := c.snap.Load()
	if tv.digests[id] != want {
		return // compacted away while the pass ran
	}
	c.snap.Store(&trustedView{digests: tv.digests, filters: c.withFilters(tv, nil, id, h.out.filter), prev: tv.prev})
}

var errReplayStopped = errors.New("core: run replay stopped")

// replayRun streams run i of snap through a hasher as the one input of a
// job that keeps every record — the output tree is then the run's own, leaf
// for leaf — and finishes it: the checkpoint import's digest check and the
// filter rebuild are this one pass. Each record is copied into enclave
// memory before the hasher reads it, so the reconstructed digest, the output
// keys and their filter all come from the same bytes, whatever the host does
// to the block meanwhile. leaves sizes the hasher (0 lets it grow); a set
// stop abandons the pass; tamper is rebuildTamper. The caller releases the
// hasher.
func replayRun(snap *lsm.Snapshot, i int, id uint64, leaves int, stop *atomic.Bool, tamper func(record.Record, bool)) (*compactionHasher, error) {
	h := newCompactionHasher([]uint64{id}, leaves)
	var buf []byte
	err := snap.RunRecords(i, func(view record.Record) error {
		if stop != nil && stop.Load() {
			return errReplayStopped
		}
		if tamper != nil {
			tamper(view, false)
		}
		buf = append(append(buf[:0], view.Key...), view.Value...)
		k := len(view.Key)
		rec := record.Record{Key: buf[:k:k], Ts: view.Ts, Kind: view.Kind, Value: buf[k:]}
		if tamper != nil {
			tamper(view, true)
		}
		return h.add(id, rec, false)
	})
	if err != nil {
		h.release()
		return nil, err
	}
	h.finish()
	return h, nil
}
