package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sstable"
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
		if err := esnap.Err(); err != nil {
			esnap.Release()
			return nil, err
		}
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
// [start, end] against the view, as ONE lockstep merge: a cursor per pinned
// run, sought to start, and the captured memtables' iterators advance
// together key by key until maxKeys distinct keys or end. The chunk's bound
// falls out of the merge — its effective end is the last key merged, so every
// run's span is exactly what that run holds in [start, chunkEnd] and no run
// reads past it — and the merge is the cross-source version resolve: for each
// key the sources are consulted in Lemma 5.4's order (memtables, then runs
// newest first), whose concatenated version lists are timestamp-descending,
// so the first version ≤ tsq met is the answer. A key whose answer is a
// tombstone counts toward maxKeys and yields no row.
//
// Every row a run's cursor lands on is copied out of its untrusted block
// once — key and value into the chunk's arena, which the returned Results
// alias — and everything the enclave then compares, resolves or hashes is
// that copy. Proofs stay behind as views of the (pinned, still untrusted)
// blocks until the merge has stopped; then the at most four per run that
// verification reads are copied (runSource.capture) and each run's span is
// verified against its digest (verifyRunScan). No result leaves before every
// span has verified. The returned cursor resumes immediately after the
// chunk's effective end. Caller is inside an ECall.
func (v *readView) scanChunk(start, end []byte, tsq uint64, maxKeys int) (out []Result, next []byte, done bool, err error) {
	c := v.c
	instr := c.rec != nil
	if instr {
		defer func(t time.Time) { c.rec.ScanChunk.ObserveSince(t) }(time.Now())
	}
	tsq = min(tsq, v.ts()) // later commits share the captured memtables
	sc := c.getScanScratch()
	defer c.putScanScratch(sc)

	arena := rowArena{next: sc.arenaHint}
	active, frozen := v.esnap.MemIters()
	active.SeekGE(start, record.MaxTs)
	if frozen != nil {
		frozen.SeekGE(start, record.MaxTs)
	}
	for i, run := range v.esnap.Runs() {
		d := v.digs[run.ID]
		if d.NumLeaves == 0 {
			continue
		}
		src := sc.addRun(run.ID, d)
		if err := v.esnap.SeekRun(i, &src.it, start); err != nil {
			return nil, nil, false, err
		}
		src.seekPrev()
		src.load(&arena)
	}
	runs := sc.runs

	var (
		chunkEnd = end
		lastKey  []byte // of the last key merged; memtable or arena memory
		keys     int
	)
	results := sc.results[:0]
	for {
		// The smallest key any source stands on is the next to merge.
		var key []byte
		have := false
		pick := func(k []byte) {
			if !have || bytes.Compare(k, key) < 0 {
				key, have = k, true
			}
		}
		if active.Valid() {
			pick(active.Record().Key)
		}
		if frozen != nil && frozen.Valid() {
			pick(frozen.Record().Key)
		}
		for i := range runs {
			if runs[i].valid {
				pick(runs[i].rec.Key)
			}
		}
		if !have || bytes.Compare(key, end) > 0 {
			done = true
			break
		}
		if keys == maxKeys && maxKeys > 0 {
			chunkEnd = lastKey
			break
		}
		keys++
		lastKey = key

		// Consume the key from every source, newest source first.
		var res Result
		resolved := false
		for _, mem := range [2]record.Iterator{active, frozen} {
			for ; mem != nil && mem.Valid(); mem.Next() {
				rec := mem.Record()
				if !bytes.Equal(rec.Key, key) {
					break
				}
				if !resolved && rec.Ts <= tsq {
					resolved = true
					if rec.Kind == record.KindSet {
						// Trusted memory, but the memtable's own: copy.
						k, val := arena.copyRow(rec.Key, rec.Value)
						res = Result{Key: k, Value: val, Ts: rec.Ts, Found: true}
					}
				}
			}
		}
		for i := range runs {
			src := &runs[i]
			for src.valid && bytes.Equal(src.rec.Key, key) {
				if rec := &src.rec; !resolved && rec.Ts <= tsq {
					resolved = true
					if rec.Kind == record.KindSet {
						res = Result{Key: rec.Key, Value: rec.Value, Ts: rec.Ts, Found: true}
					}
				}
				src.consume(&arena)
			}
		}
		if res.Found {
			results = append(results, res)
		}
	}
	sc.results = results
	sc.arenaHint = arena.used + arena.used/4

	// What is left to copy is the boundary proofs. A cursor that stopped
	// early says why, and is asked before anything is verified: a failed read
	// is an I/O error, not the omission a short run would look like; a block
	// that does not parse is the host's doing. Past this loop the chunk no
	// longer looks at untrusted memory.
	for i := range runs {
		if err := runs[i].it.Close(); err != nil {
			if errors.Is(err, sstable.ErrBadTable) {
				err = fmt.Errorf("%w: run %d: %w", ErrForged, runs[i].runID, err)
			}
			return nil, nil, false, err
		}
	}
	sc.bounds = sc.bounds[:0]
	var proofBytes uint64
	for i := range runs {
		proofBytes += uint64(runs[i].capture(sc))
	}

	// Verify every run's span over [start, chunkEnd].
	var verifyStart time.Time
	if instr {
		verifyStart = time.Now()
	}
	for i := range runs {
		sp := &runs[i].span
		if c.scanTamper != nil {
			c.scanTamper(sp)
		}
		if err = c.verify.verifyRunScan(start, chunkEnd, sp, runs[i].digest, &sc.span); err != nil {
			break
		}
	}
	c.statProofBytes.Add(proofBytes)
	if instr {
		c.rec.Verify.ObserveSince(verifyStart)
		c.rec.ProofBytes.Observe(proofBytes)
	}
	if err != nil {
		return nil, nil, false, err
	}

	out = append(make([]Result, 0, len(results)), results...)
	if done {
		return out, nil, true, nil
	}
	// The smallest key strictly greater than chunkEnd resumes the range.
	next = append(append(make([]byte, 0, len(chunkEnd)+1), chunkEnd...), 0)
	return out, next, false, nil
}

// runSource is one pinned run in the scan merge: its untrusted cursor, the
// row the cursor stands on as copied into the enclave, and the span of rows
// consumed so far. Everything named "view" below still lies in untrusted
// memory and is only ever copied (capture), never read.
type runSource struct {
	runID  uint64
	digest runDigest
	it     lsm.RunIter

	rec   record.Record // the current row: Key and Value alias the arena, Proof unset
	valid bool
	rows  []record.Record // rows consumed, in order: the span
	heads int             // distinct keys among them

	proofView           []byte        // the current row's embedded proof
	firstView, lastView []byte        // proofs of the span's first and last key
	predView            record.Record // the record before the seek position
	hasPred             bool

	span       runSpan       // what capture hands the verifier
	pred, succ record.Record // backing span.pred and span.succ
}

// seekPrev notes the record before the position the cursor was just sought
// to. A read error stays in the cursor, for scanChunk to find.
func (s *runSource) seekPrev() {
	s.predView, s.hasPred, _ = s.it.SeekPrev()
}

// load copies the row the cursor stands on into the arena.
func (s *runSource) load(a *rowArena) {
	if s.valid = s.it.Valid(); !s.valid {
		return
	}
	view := s.it.Record()
	key, value := a.copyRow(view.Key, view.Value)
	s.rec = record.Record{Key: key, Ts: view.Ts, Kind: view.Kind, Value: value}
	s.proofView = view.Proof
}

// consume moves the current row into the span and the cursor to the next.
func (s *runSource) consume(a *rowArena) {
	if n := len(s.rows); n == 0 || !bytes.Equal(s.rows[n-1].Key, s.rec.Key) {
		if s.heads++; s.heads == 1 {
			s.firstView = s.proofView
		}
		s.lastView = s.proofView
	}
	s.rows = append(s.rows, s.rec)
	s.it.Next()
	s.load(a)
}

// capture copies the rest of what verifyRunScan reads out of untrusted
// memory, appending to sc.bounds — the proofs of the span's first and last
// key, the predecessor with its proof and the proof of the row the cursor
// stopped on (the successor): at most four proofs however long the span. (If
// the buffer has to grow, what was taken before stays where it is, in the old
// array.) It fills in s.span and returns the number of proof bytes copied.
func (s *runSource) capture(sc *scanScratch) (proofBytes int) {
	take := func(src []byte) []byte {
		off := len(sc.bounds)
		sc.bounds = append(sc.bounds, src...)
		return sc.bounds[off:len(sc.bounds):len(sc.bounds)]
	}
	sp := &s.span
	*sp = runSpan{runID: s.runID, rows: s.rows}
	if s.heads > 0 {
		sp.first = take(s.firstView)
		sp.last = sp.first
		proofBytes = len(sp.first)
		if s.heads > 1 {
			sp.last = take(s.lastView)
			proofBytes += len(sp.last)
		}
	}
	if s.hasPred {
		v := s.predView
		s.pred = record.Record{Key: take(v.Key), Ts: v.Ts, Kind: v.Kind, Value: take(v.Value), Proof: take(v.Proof)}
		sp.pred = &s.pred
		proofBytes += len(v.Proof)
	}
	if s.valid {
		s.succ = s.rec
		s.succ.Proof = take(s.proofView)
		sp.succ = &s.succ
		proofBytes += len(s.proofView)
	}
	return proofBytes
}

// rowArena is the chunk-owned memory rows are copied into: blocks that never
// move or get reused, so the chunk's Results can alias a copied row for as
// long as their holder keeps them.
type rowArena struct {
	buf  []byte
	next int // size of the next block
	used int
}

const (
	arenaMinBlock = 1 << 10
	arenaMaxBlock = 64 << 10
)

// copyRow copies key and value into the arena.
func (a *rowArena) copyRow(key, value []byte) (k, v []byte) {
	n := len(key) + len(value)
	if n > cap(a.buf)-len(a.buf) {
		size := min(max(a.next, arenaMinBlock), arenaMaxBlock)
		a.next = 2 * size
		a.buf = make([]byte, 0, max(size, n))
	}
	off, mid := len(a.buf), len(a.buf)+len(key)
	a.buf = append(append(a.buf, key...), value...)
	a.used += n
	return a.buf[off:mid:mid], a.buf[mid : off+n : off+n]
}

// scanScratch is the enclave memory one scanChunk call works in beyond the
// arena it returns: the run sources with their row lists, the verifier's leaf
// and chain scratch, the boundary-proof buffer and the result list before it
// is cut to size. One call owns it at a time — a stream's chunks are fetched
// one after another, the prefetch goroutine included (chunkIter) — and calls
// hand it on through the store's bounded free list, so a store keeps at most
// scanScratchSlots of them, none above scanScratchBytes: that product is what
// Open charges to the enclave.
type scanScratch struct {
	runs      []runSource
	span      spanScratch
	bounds    []byte
	results   []Result
	arenaHint int // a first arena block this size would have held the last chunk
}

const (
	scanScratchSlots = 4
	scanScratchBytes = 256 << 10
)

// addRun appends a source for run id, reusing the row list of the slot.
func (sc *scanScratch) addRun(id uint64, d runDigest) *runSource {
	if n := len(sc.runs); n < cap(sc.runs) {
		sc.runs = sc.runs[:n+1]
	} else {
		sc.runs = append(sc.runs, runSource{})
	}
	src := &sc.runs[len(sc.runs)-1]
	*src = runSource{runID: id, digest: d, rows: src.rows[:0]}
	return src
}

// release drops every reference the scratch holds into the arena, the pinned
// runs and their blocks, keeping only its own capacity, and reports that
// capacity in bytes.
func (sc *scanScratch) release() (bytes int) {
	slots := sc.runs[:cap(sc.runs)] // the unused ones keep their row lists too
	for i := range slots {
		rows := slots[i].rows
		clear(rows)
		slots[i] = runSource{rows: rows[:0]}
		bytes += cap(rows) * int(unsafe.Sizeof(record.Record{}))
	}
	clear(sc.results)
	sc.runs, sc.results = sc.runs[:0], sc.results[:0]
	return bytes + cap(sc.runs)*int(unsafe.Sizeof(runSource{})) + cap(sc.results)*int(unsafe.Sizeof(Result{})) +
		cap(sc.span.leaves)*hashutil.Size + cap(sc.span.chain)*int(unsafe.Sizeof(chainLink{})) + cap(sc.bounds)
}

func (c *Store) getScanScratch() *scanScratch {
	select {
	case sc := <-c.scanPool:
		return sc
	default:
		return new(scanScratch)
	}
}

func (c *Store) putScanScratch(sc *scanScratch) {
	if sc.release() > scanScratchBytes {
		return // one oversized chunk must not pin its scratch forever
	}
	select {
	case c.scanPool <- sc:
	default:
	}
}
