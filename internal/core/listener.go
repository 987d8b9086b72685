package core

import (
	"fmt"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// authListener implements the engine's EventListener callbacks. The commit
// path's hooks maintain the WAL digest chains; BeginJob hands the engine a
// compactionJob per flush, compaction or bulk load. State shared between the
// two (the chains, bump bookkeeping, the staged transition seal) lives in
// the Store under c.mu.
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
// never interleave their trees. Every method runs on the job's own
// goroutine, in order: Filter per record, NewProofAppender once the stream
// has ended, Verify, then Installed and Committed, or Abort. Only the proof
// appenders are used elsewhere — each by one of the engine's file builders —
// and they only read the finished output tree. The engine serializes the
// Verify→Installed→Committed window (or Verify→Abort) on its install lock, so
// at most one staged transition seal exists at a time; Store.sealStagedBy
// records which job staged it so only that job's Abort can retract it.
type compactionJob struct {
	c         *Store
	info      lsm.CompactionInfo
	hasher    *compactionHasher
	streamErr error
}

var (
	_ lsm.EventListener = (*authListener)(nil)
	_ lsm.Job           = (*compactionJob)(nil)
)

// OnWALAppend extends the enclave's WAL digest chain (§5.3 step w1). The
// periodic counter bump moved to OnGroupCommit: it now fires once per
// durably-synced commit group, never in the middle of one — which both
// amortizes the bump across every commit that joined the group and
// guarantees the sealed state always describes a group-aligned, durable
// WAL prefix.
func (l *authListener) OnWALAppend(rec record.Record) {
	c := l.c
	c.mu.Lock()
	c.walDigest = hashutil.WALLink(c.walDigest, byte(rec.Kind), rec.Key, rec.Ts, rec.Value)
	c.freshDigest = hashutil.WALLink(c.freshDigest, byte(rec.Kind), rec.Key, rec.Ts, rec.Value)
	c.walAppends++
	c.mu.Unlock()
}

// OnGroupAppended records the WAL chain values at a group boundary. The
// pipelined committer appends group N+1 while group N's fsync is still in
// flight, so the chain tip (walDigest) runs AHEAD of stable storage; the
// mark queued here is promoted to the durable frontier by the group's
// matching OnGroupCommit, and only the durable frontier is ever sealed —
// a counter bump binding records an fsync has not confirmed would, after a
// crash, demand a WAL prefix that no longer exists and brick the store as a
// false rollback. Each mark carries the chain in BOTH bases — the full
// chain spanning frozen+active logs, and the fresh chain over the active
// log alone — because a flush install between append and durability
// promotion deletes the frozen logs and rebases the trusted chain onto the
// fresh one (compactionJob.Installed rewrites pending marks accordingly).
func (l *authListener) OnGroupAppended() {
	c := l.c
	c.mu.Lock()
	c.groupMarks = append(c.groupMarks, walMark{
		digest:  c.walDigest,
		fresh:   c.freshDigest,
		appends: c.walAppends,
	})
	c.mu.Unlock()
}

// OnGroupCommit promotes the group's appended chain mark to the durable
// frontier, then pins the dataset state to the monotonic counter (§5.6.1)
// once the configured interval of appends has durably committed — at most
// one bump per group, paid after the group is durable.
func (l *authListener) OnGroupCommit(n int) {
	c := l.c
	c.mu.Lock()
	if len(c.groupMarks) > 0 {
		mark := c.groupMarks[0]
		c.groupMarks = c.groupMarks[1:]
		c.durableDigest = mark.digest
		c.durableFresh = mark.fresh
		c.durableAppends = mark.appends
	}
	bump := c.counterInterval > 0 && c.durableAppends-c.appendsAtBump >= uint64(c.counterInterval)
	if bump {
		c.appendsAtBump = c.durableAppends
	}
	c.mu.Unlock()
	if bump {
		c.commitState()
	}
}

// OnGroupAbandoned consumes (and discards) the mark of a group whose fsync
// failed: the durable frontier stays where it was — conservatively valid,
// since a chain prefix once durable stays durable — but the mark MUST
// leave the queue, or the next successful group's OnGroupCommit would
// promote this group's stale mark and every later promotion would lag one
// group behind (and a pre-rotation stale mark could later seal a digest
// from a deleted log's chain, bricking recovery as a false rollback).
func (l *authListener) OnGroupAbandoned() {
	c := l.c
	c.mu.Lock()
	if len(c.groupMarks) > 0 {
		c.groupMarks = c.groupMarks[1:]
	}
	c.mu.Unlock()
}

// OnMemtableFrozen marks a flush generation boundary: the active WAL was
// rotated to a frozen log, records appended from now on land in a fresh
// active log, so the chain over that log alone restarts from zero. The
// full chain (walDigest) keeps spanning frozen + active logs until the
// flush installs. The engine drains the commit pipeline before any freeze,
// so no group marks are in flight here and the durable fresh frontier
// restarts at zero with the chain itself.
func (l *authListener) OnMemtableFrozen() {
	c := l.c
	c.mu.Lock()
	c.freshDigest = hashutil.Zero
	c.durableFresh = hashutil.Zero
	c.mu.Unlock()
}

// BeginJob allocates the job's staging context: the hasher that
// reconstructs every input run's tree and builds the output tree. It must
// NOT touch any staged transition seal — a concurrent job may be mid-install
// with a live one; abandoned stagings are retracted by Abort instead.
func (l *authListener) BeginJob(info lsm.CompactionInfo) lsm.Job {
	// The inputs' trusted leaf counts bound the output's (a flush adds the
	// memtable's keys on top; the bookkeeping grows for those).
	expect := 0
	digs := l.c.snapshotDigests()
	for _, id := range info.InputRuns {
		expect += digs[id].NumLeaves
	}
	return &compactionJob{c: l.c, info: info, hasher: newCompactionHasher(info.InputRuns, expect)}
}

// Filter ingests every record of the merge stream, digesting it once:
// records from untrusted input runs feed that run's reconstruction (step a
// of §5.5.2); kept records feed the output tree (step b). Memtable records
// are trusted (L0 lives in the enclave) and only feed the output side. The
// engine passes its own copy of the record — the bytes digested here are
// the bytes it writes.
func (j *compactionJob) Filter(srcRun uint64, rec record.Record, dropped bool) {
	if j.streamErr == nil {
		j.streamErr = j.hasher.add(srcRun, rec, dropped)
	}
}

// NewProofAppender hands the engine a cursor that embeds each output
// record's Merkle proof (step c of §5.5.2, "OnTableFileCreated()" in
// Figure 4) directly into the file being built. The first call finishes the
// job's trees; every appender reads the same finished output tree.
func (j *compactionJob) NewProofAppender() (sstable.ProofAppender, error) {
	if j.streamErr != nil {
		return nil, j.streamErr
	}
	return j.hasher.finish().newAppender(), nil
}

// Verify performs the authenticated-compaction input check
// (Figure 4 lines 31-33): every input run's reconstructed root must equal
// the trusted root stored in the enclave, otherwise the compaction aborts
// and the engine discards its output. The engine calls it under its
// install lock, so exactly one job stages a transition seal at a time.
func (j *compactionJob) Verify() error {
	if j.streamErr != nil {
		return j.streamErr
	}
	// A no-op if the engine already asked for proof appenders; a compaction
	// that produced no output (everything dropped) finishes its trees here.
	out := j.hasher.finish()
	c, info := j.c, j.info
	digs := c.snapshotDigests()
	for i, id := range info.InputRuns {
		trusted, ok := digs[id]
		if !ok {
			return fmt.Errorf("core: no trusted digest for input run %d", id)
		}
		if got := j.hasher.inputs[i].digest(); got != trusted {
			return fmt.Errorf("%w: input run %d root mismatch (got %s want %s)",
				ErrCompactionInput, id, got.Root, trusted.Root)
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
	next[info.OutputRun] = out.digest
	c.mu.Lock()
	wd, wa := c.durableDigest, c.durableAppends
	if info.MemtableInput {
		// A flush install deletes the frozen logs and rebases the chain
		// onto the active log alone: the post-install basis is the fresh
		// chain's durable frontier.
		wd = c.durableFresh
	}
	c.pendingSeal = &pendingState{
		Digests:    next,
		WALDigest:  wd,
		WALAppends: wa,
		LastTs:     c.engine.AppliedTs(),
	}
	c.sealStagedBy = j
	c.mu.Unlock()
	c.commitState()
	return nil
}

// Installed commits the staged digests: input runs are forgotten, the
// output run's digest takes effect, and a flush's WAL-chain rebase (the
// engine has just deleted the frozen logs) is applied in the SAME c.mu
// critical section — one copy-on-write snapshot swap, fast enough to run
// under the engine lock so readers never observe a version whose digest is
// missing, and atomic so a concurrent commit leader's periodic seal always
// fingerprints a coherent (forest, WAL chain) pair, never the new chain
// beside the old forest.
func (j *compactionJob) Installed() {
	c := j.c
	c.mu.Lock()
	if j.info.MemtableInput {
		// The frozen logs are gone: the trusted chain rebases onto the
		// active log's chain. The tip, the durable frontier and any group
		// marks still awaiting durability promotion (groups appended to
		// the active log after the freeze, fsync still in flight) all
		// switch to their fresh-basis values.
		c.walDigest = c.freshDigest
		c.durableDigest = c.durableFresh
		for i := range c.groupMarks {
			c.groupMarks[i].digest = c.groupMarks[i].fresh
		}
	}
	// The forest Verify staged IS the post-install forest: installs are
	// serialized from Verify on, so nothing changed the digests in between,
	// and what the transition seal promised is exactly what takes effect.
	// The install is durable, so the staging is no longer needed — Committed
	// reseals with the new state as Current.
	c.snap.Store(&trustedView{digests: c.pendingSeal.Digests})
	c.pendingSeal = nil
	c.sealStagedBy = nil
	c.mu.Unlock()
}

// Committed pins the new dataset state to the monotonic counter and seals it
// (§5.6.1) — the slow, durable half of the install, run by the engine
// WITHOUT its lock so readers and writers are not stalled by the seal write.
func (j *compactionJob) Committed() {
	j.c.commitState()
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
}
