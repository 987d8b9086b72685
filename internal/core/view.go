package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"elsm/internal/lsm"
	"elsm/internal/record"
)

// readView is the unit of consistent verified reading in eLSM-P2: an engine
// snapshot (pinned runs + captured memtables + applied-timestamp frontier)
// paired with the trusted digest forest covering those runs. Every verified
// read path — GetAt, the streaming iterator, and the public Snapshot — runs
// against a readView, so they share one protocol implementation and one
// consistency argument:
//
//   - the pinned runs are immutable and their files cannot be deleted while
//     the pin is held, so per-run lookups never race a compaction install
//     (the missing-run and epoch retries of the pre-snapshot code are gone
//     by construction);
//   - a run's digest never changes once installed, so the captured forest
//     stays valid for the pinned runs no matter how many versions install
//     afterwards;
//   - records committed after capture carry timestamps beyond the view's
//     frontier and are clamped away, while records flushed after capture
//     remain readable from the captured memtables — the view is repeatable.
//
// A view is reference-counted: the owning handle (a one-shot read, an
// iterator, a Snapshot) holds one reference, and each iterator opened FROM
// a Snapshot holds another, so closing the snapshot mid-iteration cannot
// unpin the runs under the stream.
type readView struct {
	c     *Store
	esnap *lsm.Snapshot
	digs  map[uint64]runDigest
	refs  atomic.Int32
}

// acquireView captures a coherent (runs, digests) pair as a read session
// (counted in SnapshotsOpen); acquireEphemeralView is the ungauged variant
// for one-shot point reads. The digest forest is loaded AFTER the engine
// snapshot: installs swap levels and digests in one engine-lock critical
// section, so the loaded view can only be same-age or newer than the run
// set — and a newer view is coherent as long as it still carries a digest
// for every pinned run (digests are per-run immutable). A missing digest
// means an install replaced pinned runs in the acquisition window;
// re-acquire against the new version.
func (c *Store) acquireView() (*readView, error) {
	return c.acquireViewWith(c.engine.AcquireSnapshot)
}

func (c *Store) acquireEphemeralView() (*readView, error) {
	return c.acquireViewWith(c.engine.AcquireEphemeralSnapshot)
}

func (c *Store) acquireViewWith(acquire func() *lsm.Snapshot) (*readView, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		esnap := acquire()
		digs := c.snapshotDigests()
		ok := true
		for _, ref := range esnap.Runs() {
			if _, have := digs[ref.ID]; !have {
				ok = false
				break
			}
		}
		if ok {
			v := &readView{c: c, esnap: esnap, digs: digs}
			v.refs.Store(1)
			return v, nil
		}
		esnap.Release()
	}
	return nil, fmt.Errorf("core: view acquisition retries exhausted under concurrent compaction")
}

// retain adds a reference (an iterator opened from a Snapshot).
func (v *readView) retain() { v.refs.Add(1) }

// release drops a reference, unpinning the engine snapshot at zero.
func (v *readView) release() {
	if v.refs.Add(-1) == 0 {
		v.esnap.Release()
	}
}

// ts returns the view's trusted timestamp frontier.
func (v *readView) ts() uint64 { return v.esnap.Ts() }

// getAt runs the GET protocol of §5.3 against the view: the captured
// memtables (trusted, in-enclave) first, then each pinned run in
// newest-first order with per-run verification, stopping at the first
// verified hit (the early-stop optimization — levels below the hit need no
// proof by Lemma 5.4). With DisableEarlyStop the walk continues through
// every run (prior-work behaviour, for the ablation), verifying deeper
// runs' membership or non-membership too. Caller is inside an ECall.
func (v *readView) getAt(key []byte, tsq uint64) (Result, error) {
	c := v.c
	c.statGets.Add(1)
	if rec, ok := v.esnap.MemGet(key, tsq); ok {
		return resultFrom(rec), nil
	}
	// Memtable miss: the run walk below pays verification. With
	// instrumentation on, accumulate the verify time and proof bytes this
	// GET spends and observe them once on the way out (error exits
	// included — a failed verification is still verification work).
	instr := c.rec != nil
	var verifyNanos, proofBytes uint64
	if instr {
		defer func() {
			c.rec.Verify.Observe(verifyNanos)
			c.rec.ProofBytes.Observe(proofBytes)
		}()
	}
	var first *Result
	for i, run := range v.esnap.Runs() {
		d := v.digs[run.ID]
		if d.NumLeaves == 0 {
			continue
		}
		c.statRunsProbed.Add(1)
		lk, lerr := v.esnap.LookupRun(i, key, tsq)
		if lerr != nil {
			return Result{}, lerr
		}
		var vstart time.Time
		if instr {
			vstart = time.Now()
		}
		if lk.Found {
			verr := c.verify.verifyMembership(key, tsq, lk.Rec, d)
			if instr {
				verifyNanos += uint64(time.Since(vstart))
				proofBytes += uint64(len(lk.Rec.Proof))
			}
			if verr != nil {
				return Result{}, verr
			}
			c.statProofBytes.Add(uint64(len(lk.Rec.Proof)))
			if !c.disableEarlyStop {
				return resultFrom(lk.Rec), nil
			}
			if first == nil {
				r := resultFrom(lk.Rec)
				first = &r
			}
			continue
		}
		verr := c.verify.verifyNonMembership(key, tsq, lk, d)
		if instr {
			verifyNanos += uint64(time.Since(vstart))
			if lk.Pred != nil {
				proofBytes += uint64(len(lk.Pred.Proof))
			}
			if lk.Succ != nil {
				proofBytes += uint64(len(lk.Succ.Proof))
			}
		}
		if verr != nil {
			return Result{}, verr
		}
		if lk.Pred != nil {
			c.statProofBytes.Add(uint64(len(lk.Pred.Proof)))
		}
		if lk.Succ != nil {
			c.statProofBytes.Add(uint64(len(lk.Succ.Proof)))
		}
	}
	if first != nil {
		return *first, nil
	}
	return Result{}, nil
}

// scanChunk runs one bounded round of the SCAN protocol of §5.4 over
// [start, end] against the view: every pinned run, and the captured
// memtables, return at most maxKeys keys; the chunk's effective end is the
// smallest last key among the sources that hit their limit (so every run's
// result can be verified as a complete sub-range), each run's result is
// shrunk to that bound and checked with verifyRunScan, and versions are
// resolved across the memtables and runs exactly as in the materialized
// protocol. The returned cursor resumes immediately after the chunk's
// effective end. Unlike the pre-snapshot implementation, no retry is
// needed: the view's sources are immutable. Caller is inside an ECall.
func (v *readView) scanChunk(start, end []byte, tsq uint64, maxKeys int) (out []Result, next []byte, done bool, err error) {
	c := v.c
	if rec := c.rec; rec != nil {
		defer func(t time.Time) { rec.ScanChunk.ObserveSince(t) }(time.Now())
	}
	var scans []lsm.RunScan
	chunkEnd := end
	for i, run := range v.esnap.Runs() {
		d := v.digs[run.ID]
		if d.NumLeaves == 0 {
			continue
		}
		rs, serr := v.esnap.ScanRunChunk(i, start, end, maxKeys)
		if serr != nil {
			return nil, nil, false, serr
		}
		if c.scanTamper != nil {
			c.scanTamper(&rs)
		}
		if rs.Truncated && len(rs.Records) > 0 {
			if last := rs.Records[len(rs.Records)-1].Key; bytes.Compare(last, chunkEnd) < 0 {
				chunkEnd = last
			}
		}
		scans = append(scans, rs)
	}
	// The memtables are a source like any run: bounded by maxKeys, and a
	// scan the limit cut short ends the chunk at the last key it covered.
	mem, memLast := v.esnap.MemScan(start, chunkEnd, tsq, maxKeys)
	if memLast != nil {
		chunkEnd = memLast
	}
	for i := range scans {
		shrinkRunScan(&scans[i], chunkEnd)
		if verr := c.verify.verifyRunScan(start, chunkEnd, scans[i], v.digs[scans[i].RunID]); verr != nil {
			return nil, nil, false, verr
		}
	}

	// Resolve versions across sources: the memtable's records are newest,
	// then runs in order (Lemma 5.4: the concatenated per-key version lists
	// are timestamp-descending).
	type keyState struct {
		resolved bool
		res      Result
	}
	states := make(map[string]*keyState)
	order := make([]string, 0, 16)
	consider := func(rec record.Record) {
		ks, ok := states[string(rec.Key)]
		if !ok {
			ks = &keyState{}
			states[string(rec.Key)] = ks
			order = append(order, string(rec.Key))
		}
		if ks.resolved || rec.Ts > tsq {
			return
		}
		ks.resolved = true
		ks.res = resultFrom(rec)
	}
	for _, rec := range mem {
		consider(rec)
	}
	for _, rs := range scans {
		for _, rec := range rs.Records {
			consider(rec)
		}
	}
	sort.Strings(order)
	for _, k := range order {
		if ks := states[k]; ks.resolved && ks.res.Found {
			out = append(out, ks.res)
		}
	}
	if bytes.Equal(chunkEnd, end) {
		return out, nil, true, nil
	}
	// The smallest key strictly greater than chunkEnd resumes the range.
	next = append(append([]byte(nil), chunkEnd...), 0)
	return out, next, false, nil
}

// shrinkRunScan truncates a per-run result to keys ≤ chunkEnd, promoting the
// first record beyond the bound to the right-boundary witness. The promoted
// record is the newest version of the next key — the leaf immediately after
// the kept span — so adjacency verification still holds.
func shrinkRunScan(rs *lsm.RunScan, chunkEnd []byte) {
	idx := len(rs.Records)
	for i, rec := range rs.Records {
		if bytes.Compare(rec.Key, chunkEnd) > 0 {
			idx = i
			break
		}
	}
	if idx == len(rs.Records) {
		return
	}
	rs.Succ = &rs.Records[idx]
	rs.Records = rs.Records[:idx]
}
