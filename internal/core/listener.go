package core

import (
	"fmt"

	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sstable"
	"elsm/internal/wal"
)

// authListener implements the engine's EventListener callbacks. The commit
// path's hooks tag the WAL's groups (walChain); BeginJob hands the engine a
// compactionJob per flush, compaction or bulk load. State shared between the
// two (the chain, the staged transition seal) lives in the Store under c.mu.
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
// part's stream has ended, Verify, then Installed and Committed, or Abort.
// Only the proof appenders are used elsewhere — each by one of the engine's
// file builders — and they only read the finished output tree. The engine
// serializes the Verify→Installed→Committed window (or Verify→Abort) on its
// install lock, so at most one staged transition seal exists at a time;
// Store.sealStagedBy records which job staged it so only that job's Abort
// can retract it.
type compactionJob struct {
	c    *Store
	info lsm.CompactionInfo
	// parts holds a hasher per key-range part, in key order; parts[0]
	// finishes the joined trees. Nil once the job has ended, or if its
	// bounds were refused (err).
	parts []*compactionHasher
	err   error
}

var (
	_ lsm.EventListener = (*authListener)(nil)
	_ lsm.Job           = (*compactionJob)(nil)
)

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
// and build the output tree (the job's end returns them). It must
// NOT touch any staged transition seal — a concurrent job may be mid-install
// with a live one; abandoned stagings are retracted by Abort instead.
func (l *authListener) BeginJob(info lsm.CompactionInfo) lsm.Job {
	if l.c.beginJob != nil {
		l.c.beginJob(info)
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

// Verify performs the authenticated-compaction input check
// (Figure 4 lines 31-33): every input run's reconstructed root must equal
// the trusted root stored in the enclave, otherwise the compaction aborts
// and the engine discards its output. The engine calls it under its
// install lock, so exactly one job stages a transition seal at a time. The
// staged digest of the output run carries level, where the engine installs
// it.
func (j *compactionJob) Verify(level int) error {
	if err := j.streamErr(); err != nil {
		return err
	}
	// A no-op if the engine already asked for proof appenders; a compaction
	// that produced no output (everything dropped) finishes its trees here.
	out := j.finish()
	c, info := j.c, j.info
	digs := c.snapshotDigests()
	for i, id := range info.InputRuns {
		trusted, ok := digs[id]
		if !ok {
			return fmt.Errorf("core: no trusted digest for input run %d", id)
		}
		if got := &j.parts[0].inputs[i]; !got.matches(trusted) {
			return fmt.Errorf("%w: input run %d root mismatch (got %s want %s)",
				ErrCompactionInput, id, got.digest().Root, trusted.Root)
		}
	}
	// Stage the post-install state and write a TRANSITION seal before the
	// engine makes the install durable (manifest rename). From here until
	// Installed clears the staging, every sealed blob names both
	// the current state and this pending one, so a crash on either side of
	// the rename recovers cleanly: before it the directory matches
	// Current, after it the directory matches Pending. Without this the
	// window between the manifest rename and the post-install seal bricks
	// the store as a false rollback.
	next := make(map[uint64]runDigest, len(digs)+1)
	for id, d := range digs {
		next[id] = d
	}
	for _, id := range info.InputRuns {
		delete(next, id)
	}
	if err := checkOutputRun(digs, next, info.OutputRun, level); err != nil {
		return err
	}
	d := out.digest
	d.Level = level
	next[info.OutputRun] = d
	c.mu.Lock()
	base := c.chain.base
	if info.MemtableInput {
		// A flush install deletes the frozen logs, which hold the flushed
		// memtable's records (and at most a failed group after them, which
		// no group follows until Open): the live log then starts past them.
		base += uint64(info.TrustedRecords)
	}
	c.pendingSeal = &pendingState{
		Digests:    next,
		WALBase:    base,
		WALAppends: c.chain.durable,
		LastTs:     c.engine.AppliedTs(),
	}
	c.sealStagedBy = j
	c.mu.Unlock()
	_ = c.commitState()
	return nil
}

// checkOutputRun holds a job's output run ID to what checkRunOrder assumes
// of the sealed forest: the ID is new (in no run of digs, the forest before
// the job), and it is larger than every ID left at level, where the run goes
// in front. Run IDs come from the untrusted MANIFEST, so without this a host
// that lowered the next ID could seal a newer run behind an older one's ID,
// then list the level in the order that serves the older value.
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

// Installed commits the staged digests: input runs are forgotten and their
// key filters freed, the output run's digest and key filter take effect,
// and the base of the live logs moves past a flush's deleted frozen logs in
// the SAME c.mu critical section — one copy-on-write snapshot swap, atomic
// so a concurrent commit leader's periodic seal always pairs the forest with
// the logs it leaves live. The engine publishes the matching read version
// right after, under the same engine lock; until it does, readers pin the
// version before it, whose forest the new view keeps as prev.
func (j *compactionJob) Installed() {
	c := j.c
	c.mu.Lock()
	c.chain.base = c.pendingSeal.WALBase
	// The forest Verify staged IS the post-install forest: installs are
	// serialized from Verify on, so nothing changed the digests in between,
	// and what the transition seal promised is exactly what takes effect.
	// The install is durable, so the staging is no longer needed — Committed
	// reseals with the new state as Current.
	tv := c.snap.Load()
	c.snap.Store(&trustedView{
		digests: c.pendingSeal.Digests,
		filters: c.withFilters(tv, j.info.InputRuns, j.info.OutputRun, j.parts[0].out.filter),
		prev:    tv.digests,
	})
	c.pendingSeal = nil
	c.sealStagedBy = nil
	c.mu.Unlock()
}

// Committed pins the new dataset state to the monotonic counter and seals it
// (§5.6.1) — the slow, durable half of the install, run by the engine
// WITHOUT its lock so readers and writers are not stalled by the seal write.
func (j *compactionJob) Committed() {
	_ = j.c.commitState()
	j.release()
}

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

// Abort discards a failed job. If THIS job had already staged a transition
// seal (Verify succeeded but the install failed), the staged state can never
// match a recovered directory — the job's output files were removed — so
// retract it; a transition staged by a different, concurrently-installing
// job is left untouched (sealStagedBy keys the staging to its owner). The
// next seal write drops the retracted pending state from the sealed blob.
func (j *compactionJob) Abort() {
	c := j.c
	c.mu.Lock()
	if c.sealStagedBy == j {
		c.pendingSeal = nil
		c.sealStagedBy = nil
	}
	c.mu.Unlock()
	j.release()
}
