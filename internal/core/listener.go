package core

import (
	"encoding/json"
	"fmt"
	"maps"

	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sstable"
	"elsm/internal/wal"
)

// authListener implements the engine's EventListener callbacks. The commit
// path's hooks tag the WAL's groups (walChain); BeginJob hands the engine a
// compactionJob per flush, compaction or bulk load. State shared between the
// two (the chain, the digest forest) lives in the Store under c.mu. It is
// also the engine's VersionStore: the version is sealed with the trusted
// state, so an install is durable in one write.
type authListener struct {
	c *Store
}

// compactionJob is the authenticated-compaction logic of Figure 4 for one
// maintenance job: it rebuilds a Merkle tree per input run from the filtered
// record stream, checks each against the trusted in-enclave root, builds the
// output tree, embeds per-record proofs into output files, and commits the
// new digests only after the engine has installed the new version.
//
// The engine runs jobs on a worker POOL, so several jobs' Merkle rebuilds are
// live at once, each in its own compactionJob — two concurrent rebuilds can
// never interleave their trees. Within a job, Filter runs on one goroutine
// per key-range part and feeds that part's hasher only; every other method
// runs on the job's own goroutine, in order: NewProofAppender once every
// part's stream has ended, Verify, the seal of the version (SaveVersion),
// then Installed and Committed, or Abort. Only the proof appenders are used
// elsewhere — each by one of the engine's file builders — and they only read
// the finished output tree. The engine serializes the Verify→Committed
// window (or Verify→Abort) on its install lock, so the forest a Verify
// checks against is the forest its seal replaces.
type compactionJob struct {
	c    *Store
	info lsm.CompactionInfo
	// parts holds a hasher per key-range part, in key order; parts[0]
	// finishes the joined trees. Nil once the job has ended, or if its
	// bounds were refused (err).
	parts []*compactionHasher
	err   error
	// next is the forest after the install, once Verify has passed.
	next map[uint64]runDigest
}

var (
	_ lsm.EventListener = (*authListener)(nil)
	_ lsm.VersionStore  = (*authListener)(nil)
	_ lsm.Job           = (*compactionJob)(nil)
)

// LoadVersion implements lsm.VersionStore: the version the seal Open read
// carries, nil for a store never sealed.
func (l *authListener) LoadVersion() ([]byte, error) {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.c.version, nil
}

// SaveVersion implements lsm.VersionStore: it seals job's verified forest
// with version, the engine's version after the install, in one write — the
// install's commit point. If the seal fails, the engine undoes the install
// and the sealed state stays the one before it.
func (l *authListener) SaveVersion(job lsm.Job, version []byte) error {
	return l.c.seal(job.(*compactionJob), json.RawMessage(version))
}

// OnGroupAppended tags one group about to be appended (§5.3 step w1) and
// holds its position until its fsync reports. Until then the append count
// runs AHEAD of stable storage, and only the durable frontier is ever sealed
// — a counter bump binding records an fsync has not confirmed would, after a
// crash, demand a log prefix that no longer exists and brick the store as a
// false rollback. At recovery the engine calls it for every replayed group, whose
// tag is checked at the position the replay counts it at.
func (l *authListener) OnGroupAppended(recs []record.Record, tag *wal.Tag, replayed bool) {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if replayed {
		c.chain.replayed(recs, tag)
		return
	}
	*tag = c.chain.appended(recs)
}

// OnGroupSynced settles the group's position — the durable frontier on
// success, dropped on a failed fsync — and then pins the dataset state to
// the monotonic counter (§5.6.1) once the configured interval of appends
// has durably committed: at most one bump per group, paid after the group
// is durable.
func (l *authListener) OnGroupSynced(durable bool) {
	c := l.c
	c.mu.Lock()
	c.chain.synced(durable)
	bump := durable && c.chain.bumpDue(c.counterInterval)
	c.mu.Unlock()
	if bump {
		_ = c.commitState()
	}
}

// BeginJob prepares the job's staging context: hashers from the pool, one
// per key-range part, that between them reconstruct every input run's tree
// and build the output tree (the job's end returns them); a relabel, which
// streams nothing, gets none. It changes no shared state: a concurrent job
// may be mid-install.
func (l *authListener) BeginJob(info lsm.CompactionInfo) lsm.Job {
	if l.c.beginJob != nil {
		l.c.beginJob(info)
	}
	if info.Relabel {
		return &compactionJob{c: l.c, info: info}
	}
	// The inputs' trusted leaf counts and the trusted records streamed
	// beside them bound the output's.
	expect := info.TrustedRecords
	digs := l.c.snapshotDigests()
	for _, id := range info.InputRuns {
		expect += digs[id].NumLeaves
	}
	j := &compactionJob{c: l.c, info: info}
	j.parts, j.err = newPartedHashers(make([]*compactionHasher, 0, len(info.Bounds)+1), info.InputRuns, info.Bounds, expect)
	if j.err == nil {
		j.parts[0].out.blockSize = info.BlockSize
	}
	return j
}

// Filter ingests every record of its part's merge stream, digesting it
// once: records from untrusted input runs feed that run's reconstruction
// (step a of §5.5.2); kept records feed the output tree (step b). Memtable
// records are trusted (L0 lives in the enclave) and only feed the output
// side. The engine passes its own copy of the record — the bytes digested
// here are the bytes it writes. Parts run concurrently, each on its own
// hasher.
func (j *compactionJob) Filter(part int, srcRun uint64, rec record.Record, dropped bool) {
	if j.err != nil {
		return
	}
	if h := j.parts[part]; h.err == nil {
		h.err = h.add(srcRun, rec, dropped)
	}
}

// streamErr reports why the job's stream was refused, if it was.
func (j *compactionJob) streamErr() error {
	if j.err != nil {
		return j.err
	}
	for _, h := range j.parts {
		if h.err != nil {
			return h.err
		}
	}
	return nil
}

// finish joins the parts' trees (see compactionHasher.finish).
func (j *compactionJob) finish() *outputTree { return j.parts[0].finish(j.parts[1:]...) }

// NewProofAppender hands the engine a cursor that embeds the output records'
// Merkle proofs (step c of §5.5.2, "OnTableFileCreated()" in Figure 4)
// directly into the file being built, one group section per block. The
// first call finishes the job's trees; every appender reads the same
// finished output tree.
func (j *compactionJob) NewProofAppender() (sstable.ProofAppender, error) {
	if err := j.streamErr(); err != nil {
		return nil, err
	}
	return j.finish().newAppender(), nil
}

// RunFilter hands the engine the output run's key filter to store in the
// run's first table, for a later Open to load (loadRunFilter). The output
// tree is finished: NewProofAppender came first.
func (j *compactionJob) RunFilter() []byte { return j.parts[0].out.filter }

// Verify performs the authenticated-compaction input check
// (Figure 4 lines 31-33): every input run's reconstructed root must equal
// the trusted root stored in the enclave, otherwise the compaction aborts
// and the engine discards its output. A relabel is checked by relabeled
// instead. On success the job holds the forest after its install, the
// output run's digest carrying level, where the engine installs it; the
// engine's SaveVersion seals it.
func (j *compactionJob) Verify(level int) (err error) {
	digs := j.c.snapshotDigests()
	if j.info.Relabel {
		j.next, err = relabeled(digs, j.info.OutputRun, level)
	} else {
		j.next, err = j.merged(digs, level)
	}
	return err
}

// merged checks a merge's stream against the trusted forest digs and
// returns the forest after its install: the inputs gone, the output run at
// level.
func (j *compactionJob) merged(digs map[uint64]runDigest, level int) (map[uint64]runDigest, error) {
	if err := j.streamErr(); err != nil {
		return nil, err
	}
	// A no-op if the engine already asked for proof appenders; a compaction
	// that produced no output (everything dropped) finishes its trees here.
	out := j.finish()
	info := j.info
	for i, id := range info.InputRuns {
		trusted, ok := digs[id]
		if !ok {
			return nil, fmt.Errorf("core: no trusted digest for input run %d", id)
		}
		if got := &j.parts[0].inputs[i]; !got.matches(trusted) {
			return nil, fmt.Errorf("%w: input run %d root mismatch (got %s want %s)",
				ErrCompactionInput, id, got.digest().Root, trusted.Root)
		}
	}
	next := maps.Clone(digs)
	for _, id := range info.InputRuns {
		delete(next, id)
	}
	if err := checkOutputRun(digs, next, info.OutputRun, level); err != nil {
		return nil, err
	}
	d := out.digest
	d.Level = level
	next[info.OutputRun] = d
	return next, nil
}

// relabeled checks the move of run id to level, the level below its own,
// against the trusted forest digs alone — nothing of the run is read — and
// returns the forest after it, which differs only in the run's level. The
// run must be sealed one level up; a host that lists it elsewhere is lying.
// Its ID must be above every run at level, which checkRunOrder holds a
// level's order to: if it is not, the relabel is refused with
// lsm.ErrRelabelRefused, and the engine merges the run under a new ID.
func relabeled(digs map[uint64]runDigest, id uint64, level int) (map[uint64]runDigest, error) {
	d, ok := digs[id]
	if !ok || d.Level != level-1 {
		return nil, fmt.Errorf("%w: relabel of run %d to level %d, sealed at level %d", ErrAuthFailed, id, level, d.Level)
	}
	for other, od := range digs {
		if od.Level == level && other > id {
			return nil, fmt.Errorf("%w: run %d would go in front of run %d at level %d", lsm.ErrRelabelRefused, id, other, level)
		}
	}
	next := maps.Clone(digs)
	d.Level = level
	next[id] = d
	return next, nil
}

// checkOutputRun holds a job's output run ID to what checkRunOrder assumes
// of the sealed forest: the ID is new (in no run of digs, the forest before
// the job), and it is larger than every ID left at level, where the run goes
// in front. The engine chooses run IDs, so without this an engine that
// lowered the next ID would seal a newer run behind an older one's ID, in
// the order that serves the older value.
func checkOutputRun(digs, next map[uint64]runDigest, id uint64, level int) error {
	if _, ok := digs[id]; ok {
		return fmt.Errorf("%w: output run %d reuses a live run's ID", ErrAuthFailed, id)
	}
	for other, d := range next {
		if d.Level == level && other > id {
			return fmt.Errorf("%w: output run %d goes in front of run %d at level %d", ErrAuthFailed, id, other, level)
		}
	}
	return nil
}

// Installed takes the installed runs' trusted state into effect — the seal
// already made the forest, the log base and the version the store's: input
// runs are forgotten and their key filters freed, and the output run's
// digest and key filter take effect (a relabeled run keeps its filter). It
// returns the output run's trustedRun, which the version the engine
// publishes right after carries: readers see the new run and its trusted
// state together.
func (j *compactionJob) Installed() any {
	c := j.c
	c.mu.Lock()
	defer c.mu.Unlock()
	var tr *trustedRun
	if id := j.info.OutputRun; j.info.Relabel {
		// A new trustedRun for the moved run, sharing the old one's filter:
		// the versions before the move keep the old one, unchanged.
		tr = &trustedRun{digest: c.digests[id], filter: c.trusted[id].filter}
	} else {
		for _, in := range j.info.InputRuns {
			c.trusted[in].retire()
			delete(c.trusted, in)
		}
		tr = &trustedRun{digest: c.digests[id], filter: newRunFilter(c.enclave, j.parts[0].out.filter)}
	}
	c.trusted[j.info.OutputRun] = tr
	return tr
}

// Committed ends a job that installed.
func (j *compactionJob) Committed() { j.release() }

// release hands the job's hashers back for the next job. Exactly one of
// Committed and Abort ends a job, and only after the engine's last proof
// appender over the output tree is done; the job keeps no reference, so a
// use after the end fails loudly instead of reading another job's tree.
func (j *compactionJob) release() {
	for _, h := range j.parts {
		h.release()
	}
	j.parts = nil
}

// Abort discards a failed job: nothing of it was sealed.
func (j *compactionJob) Abort() { j.release() }
