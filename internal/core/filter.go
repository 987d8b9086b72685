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

// trustedRun is what the enclave trusts about one run, and it travels with
// the run: Installed returns it for the run it installs, recovery attaches it
// to each run it opened (lsm.SetRunTrust), and every version listing the run
// carries it (lsm.RunRef.Trust), so a reader gets the runs it pinned and
// their trusted state in one load. The digest never changes. The key filter
// is published into the struct in place, once — by Installed, or by the
// rebuild for a recovered run — and is derived state: never sealed, and a
// run without one is read through its proofs alone.
type trustedRun struct {
	digest runDigest
	filter atomic.Pointer[runFilter]
}

// runFilter is the Bloom filter the enclave built over one run's keys, as it
// hashed them into the run's Merkle tree (outputTree.keyFilter), and the
// enclave region its bytes are charged to while the run is live.
type runFilter struct {
	keys bloom.Filter
	mem  *sgx.Region
}

// excludes reports whether the filter rules out of the run the key whose
// keyHash is kh. A nil runFilter — a run with no filter — rules nothing out.
func (f *runFilter) excludes(kh uint64) bool {
	return f != nil && !f.keys.MayContainHash(kh)
}

// setFilter publishes f, unless it is nil, as the run's key filter, charged
// to the enclave. Caller holds c.mu, and the run is in c.trusted or is being
// installed: retire frees the charge once the run leaves it.
func (tr *trustedRun) setFilter(e *sgx.Enclave, f bloom.Filter) {
	if f != nil {
		tr.filter.Store(&runFilter{keys: f, mem: e.Alloc(len(f))})
	}
}

// retire frees the charge of the run's filter, as the run leaves c.trusted.
// Readers of the versions that still list the run keep using its bytes.
func (tr *trustedRun) retire() {
	if f := tr.filter.Load(); f != nil {
		f.mem.Free()
	}
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
	var snap lsm.Snapshot
	c.engine.AcquireSnapshotInto(&snap, false)
	defer snap.Release()
	i := slices.IndexFunc(snap.Runs(), func(r lsm.RunRef) bool { return r.ID == id })
	if snap.Err() != nil || i < 0 {
		return
	}
	tr, _ := snap.Runs()[i].Trust.(*trustedRun)
	if tr == nil || tr.digest.NumLeaves == 0 {
		return
	}
	h, err := replayRun(&snap, i, id, tr.digest.NumLeaves, &c.rebuildStop, c.rebuildTamper)
	if err != nil {
		return
	}
	defer h.release()
	if !h.inputs[0].matches(tr.digest) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trusted[id] == tr { // not compacted away while the pass ran
		tr.setFilter(c.enclave, h.out.filter)
	}
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
