package core

import (
	"bytes"

	"elsm/internal/bloom"
	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
)

// trustedRun is what the enclave trusts about one run, and it travels with
// the run: Installed returns it for the run it installs, recovery attaches it
// to each run it opened (lsm.SetRunTrust), and every version listing the run
// carries it (lsm.RunRef.Trust), so a reader gets the runs it pinned and
// their trusted state in one load. Neither field changes once a reader can
// see the run. A run without a key filter is read through its proofs alone.
type trustedRun struct {
	digest runDigest
	filter *runFilter
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

// newRunFilter charges f, unless it is nil, to the enclave as a run's key
// filter; retire frees the charge once the run leaves c.trusted.
func newRunFilter(e *sgx.Enclave, f bloom.Filter) *runFilter {
	if f == nil {
		return nil
	}
	return &runFilter{keys: f, mem: e.Alloc(len(f))}
}

// loadRunFilter is the key filter of a run recovery opened, from the bytes
// its first table stores (lsm.Job.RunFilter), which are the host's: they are
// copied into enclave memory first, and the copy is kept only if its hash is
// the one sealed in the run's digest, so what was checked is what Gets probe.
// No bytes, other bytes, or a digest sealed without a filter hash leave the
// run with no filter: every Get then proves it.
func loadRunFilter(e *sgx.Enclave, d runDigest, stored []byte) *runFilter {
	if d.Filter.IsZero() || len(stored) == 0 {
		return nil
	}
	f := newRunFilter(e, bytes.Clone(stored))
	f.mem.CopyIn(0, len(stored))
	if hashutil.FilterHash(f.keys) != d.Filter {
		f.mem.Free()
		return nil
	}
	return f
}

// retire frees the charge of the run's filter, as the run leaves c.trusted.
// Readers of the versions that still list the run keep using its bytes.
func (tr *trustedRun) retire() {
	if tr.filter != nil {
		tr.filter.mem.Free()
	}
}

// replayRun streams run i of snap through a hasher as the one input of a
// job that keeps every record — the output tree is then the run's own, leaf
// for leaf — and finishes it: the checkpoint import's digest check. Each
// record is copied into enclave memory before the hasher reads it, so the
// reconstructed digest comes from the same bytes, whatever the host does to
// the block meanwhile. The caller releases the hasher.
func replayRun(snap *lsm.Snapshot, i int, id uint64) (*compactionHasher, error) {
	h := newCompactionHasher([]uint64{id}, 0)
	var buf []byte
	err := snap.RunRecords(i, func(view record.Record) error {
		buf = append(append(buf[:0], view.Key...), view.Value...)
		k := len(view.Key)
		rec := record.Record{Key: buf[:k:k], Ts: view.Ts, Kind: view.Kind, Value: buf[k:]}
		return h.add(id, rec, false)
	})
	if err != nil {
		h.release()
		return nil, err
	}
	h.finish()
	return h, nil
}
