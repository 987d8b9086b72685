package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"

	"elsm/internal/blockcache"
	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/memtable"
	"elsm/internal/record"
	"elsm/internal/sstable"
)

// readView is the unit of consistent verified reading in eLSM-P2: an engine
// snapshot (pinned runs + captured memtables + applied-timestamp frontier)
// whose every run carries its trusted state — its digest and the enclave's
// key filter once it has one (trustedRun, lsm.RunRef.Trust). Every verified
// read path — GetAt, the streaming iterator, and the public Snapshot — runs
// against a readView, so they share one protocol implementation and one
// consistency argument:
//
//   - the pinned runs are immutable and their files cannot be deleted while
//     the pin is held, so per-run lookups never race a compaction install;
//   - the runs and their digests come from one pin of one version: the engine
//     publishes a version only once the listener has returned the new run's
//     trusted state, and a run's digest never changes, so there is nothing to
//     reconcile and nothing to retry, however many versions install
//     afterwards. A pinned run with no trusted state fails the read
//     (ErrUntrustedRun); it is never skipped;
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
	esnap lsm.Snapshot
	refs  atomic.Int32
}

// ErrUntrustedRun reports a pinned run that carries no trusted state: the
// read cannot hold the run's answer to a digest, so it fails rather than
// skip a run that may hold the newest version of the key.
var ErrUntrustedRun = fmt.Errorf("%w: run without trusted state", ErrAuthFailed)

// acquireView pins the current version, its runs with their trusted state,
// as a read session (counted in SnapshotsOpen); a one-shot point read pins a
// view on its stack instead (GetAt).
func (c *Store) acquireView() (*readView, error) {
	v := &readView{c: c}
	if err := c.pinView(v, true); err != nil {
		return nil, err
	}
	return v, nil
}

// pinView pins the current version into v, reusing its memory.
func (c *Store) pinView(v *readView, session bool) error {
	c.engine.AcquireSnapshotInto(&v.esnap, session)
	if err := v.esnap.Err(); err != nil {
		v.esnap.Release()
		return err
	}
	v.refs.Store(1)
	return nil
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
// proof by Lemma 5.4). A run whose key filter rules the key out is skipped
// with no lookup and no proof: the enclave built the filter over the very
// keys it hashed into the run's tree, so its "no" is trusted, as the digest
// is. A run whose filter says "maybe" (or that has none) is next asked of
// the enclave's verified-record cache: an entry for the key under the run's
// root, visible at tsq, is the run's verified answer, and ends the walk with
// no block read, no witness and no hash. Otherwise the run is proved as
// before; a false positive costs only that proof. Per probed run the host
// hands over views of its blocks, pinned in the block cache; the enclave
// copies the witnesses out of them once, into a read scratch
// (readScratch.take) the Get takes at its first probed run, verifies the
// copies, and lets go of the blocks and the scratch when the Get ends. The
// filters, the record cache and the scratch slot all take kh, the key's
// keyHash, and the Get counts into the counter stripe kh picks. Caller is
// inside an ECall.
func (v *readView) getAt(key []byte, kh, tsq uint64) (Result, error) {
	c := v.c
	st := c.stats(kh)
	st.gets.Add(1)
	if rec, ok := v.esnap.MemGet(key, tsq); ok {
		return resultFrom(rec), nil
	}
	var g *readScratch
	defer func() {
		if g != nil {
			g.pins.Release()
			c.putReadScratch(g)
		}
	}()
	// Memtable miss: the run walk below may pay verification. With
	// instrumentation on, accumulate the verify time and proof bytes this
	// GET spends and, if it proved any run, observe them once on the way out
	// (error exits included — a failed verification is still verification
	// work).
	instr := c.rec != nil
	var verifyNanos, proofBytes uint64
	proved := false
	if instr {
		defer func() {
			if proved {
				c.rec.Verify.Observe(verifyNanos)
				c.rec.ProofBytes.Observe(proofBytes)
			}
		}()
	}
	for i, run := range v.esnap.Runs() {
		tr, _ := run.Trust.(*trustedRun)
		if tr == nil {
			return Result{}, fmt.Errorf("%w: run %d", ErrUntrustedRun, run.ID)
		}
		d := tr.digest
		if d.NumLeaves == 0 {
			continue
		}
		if tr.filter.excludes(kh) {
			st.runsFiltered.Add(1)
			continue
		}
		if res, ok := c.verify.records.lookup(&d.Root, key, kh, tsq); ok {
			st.runsCached.Add(1)
			return res, nil
		}
		st.runsProbed.Add(1)
		proved = true
		if g == nil {
			g = c.getReadScratch(kh)
		}
		var lerr error
		if g.views, lerr = v.esnap.LookupRunViews(i, key, tsq, &g.pins); lerr != nil {
			return Result{}, lerr
		}
		if c.getTamper != nil {
			c.getTamper(&g.views, false)
		}
		lk := g.take()
		if c.getTamper != nil {
			c.getTamper(&g.views, true)
		}
		var vstart time.Time
		if instr {
			vstart = time.Now()
		}
		if lk.Found {
			verr := c.verify.verifyHit(key, kh, tsq, lk.Rec, d)
			if instr {
				verifyNanos += uint64(time.Since(vstart))
				proofBytes += uint64(len(lk.Rec.Proof))
			}
			if verr != nil {
				return Result{}, verr
			}
			st.proofBytes.Add(uint64(len(lk.Rec.Proof)))
			if lk.Rec.Kind != record.KindSet {
				return Result{}, nil // a tombstone
			}
			// take copied the hit's key and value into memory of its own.
			return Result{Key: lk.Rec.Key, Value: lk.Rec.Value, Ts: lk.Rec.Ts, Found: true}, nil
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
			st.proofBytes.Add(uint64(len(lk.Pred.Proof)))
		}
		if lk.Succ != nil {
			st.proofBytes.Add(uint64(len(lk.Succ.Proof)))
		}
	}
	return Result{}, nil
}

// readScratch is the memory one verified Get works in once it proves a run:
// the views a run's lookup hands over (aliasing untrusted blocks), the
// witnesses the enclave copies out of them (buf, and the records the
// verifier reads that alias it) and the pins holding the viewed blocks in
// place until then. (A one-shot Get's read view and engine snapshot live on
// its stack, so a Get a filter or the record cache answers takes no
// scratch.) A verified stream owns one for its lifetime (Store.stream): the
// view it reads, and its start and end bytes in buf. Both hand it on
// through the store's bounded free list (scratchSlots), as scans do their
// scanScratch, so a store keeps at most readScratchSlots of them, none above
// readScratchBytes: that product is what Open charges to the enclave.
type readScratch struct {
	views      lsm.RunViews
	pins       blockcache.Pins
	buf        []byte
	pred, succ record.Record
	view       readView  // a stream's own, pinned by IterAt
	stream     *readView // a stream's: view, or a Snapshot's
	hint       uint64    // the key hash it was taken with, to go back by
}

const (
	readScratchSlots = 8
	readScratchBytes = 16 << 10
)

// take copies what the verifier reads of one run's answer out of the blocks
// its views alias — key, timestamp, kind, value and the proof rebuilt from
// its block's section — once. A hit's key and value go into one allocation
// of their own, which the Result keeps if the hit verifies; everything else
// goes into g.buf, reused run after run. (If buf has to grow, what was taken
// before stays where it is, in the old array.) Nothing after take reads a
// view.
func (g *readScratch) take() lsm.RunLookup {
	v := &g.views
	g.buf = g.buf[:0]
	lk := lsm.RunLookup{RunID: v.RunID, Found: v.Found, EmptyRun: v.EmptyRun}
	if v.Found {
		lk.Rec = g.copy(v.Rec, true)
		return lk
	}
	if v.Pred.Rec.Kind != 0 {
		g.pred = g.copy(v.Pred, false)
		lk.Pred = &g.pred
	}
	if v.Succ.Rec.Kind != 0 {
		g.succ = g.copy(v.Succ, false)
		lk.Succ = &g.succ
	}
	return lk
}

func (g *readScratch) copy(v sstable.View, hit bool) record.Record {
	rec := record.Record{Ts: v.Rec.Ts, Kind: v.Rec.Kind}
	if hit && rec.Kind == record.KindSet {
		k := len(v.Rec.Key)
		kv := make([]byte, k+len(v.Rec.Value))
		copy(kv, v.Rec.Key)
		copy(kv[k:], v.Rec.Value)
		rec.Key, rec.Value = kv[:k:k], kv[k:]
	} else {
		off := len(g.buf)
		g.buf = append(append(g.buf, v.Rec.Key...), v.Rec.Value...)
		k := off + len(v.Rec.Key)
		rec.Key, rec.Value = g.buf[off:k:k], g.buf[k:len(g.buf):len(g.buf)]
	}
	off := len(g.buf)
	g.buf = v.Proof.AppendTo(g.buf)
	rec.Proof = g.buf[off:len(g.buf):len(g.buf)]
	return rec
}

// getReadScratch takes a read scratch from the slot hint, a key hash,
// picks, or the first full one after it, or makes one.
func (c *Store) getReadScratch(hint uint64) *readScratch {
	g := c.readPool.get(hint)
	if g == nil {
		g = new(readScratch)
		g.view.c = c
	}
	g.hint = hint
	return g
}

func (c *Store) putReadScratch(g *readScratch) {
	g.views, g.pred, g.succ, g.stream = lsm.RunViews{}, record.Record{}, record.Record{}, nil
	if cap(g.buf) > readScratchBytes {
		return // one outsized witness or range must not pin its scratch forever
	}
	c.readPool.put(g.hint, g)
}

// fetchChunk implements chunkSource: a stream's chunk is fetched and
// verified in one ECall.
func (g *readScratch) fetchChunk(cursor, end []byte, tsq uint64) (out []Result, next []byte, done bool, err error) {
	v := g.stream
	v.c.enclave.ECall(func() { out, next, done, err = v.scanChunk(cursor, end, tsq, v.c.iterChunkKeys) })
	return out, next, done, err
}

// release implements chunkSource: the stream drops its view reference and
// hands the scratch back.
func (g *readScratch) release() {
	g.stream.release()
	g.view.c.putReadScratch(g)
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
// once — key and value into the scratch's arena — and everything the enclave
// then compares, resolves or hashes is that copy. Proofs stay behind as
// handles on the (pinned, still untrusted) blocks until the merge has
// stopped; then the at most four per run that verification reads are rebuilt
// as they are copied (runSource.capture), byte for byte the embedded proofs
// the verifier knows, and each run's span is verified against its digest
// (verifyRunScan). No result leaves before every span has verified; then the
// winning rows are copied once more, out of the arena (or memtable) into one
// block of their own (deliver). The returned cursor resumes immediately after
// the chunk's effective end. Caller is inside an ECall.
func (v *readView) scanChunk(start, end []byte, tsq uint64, maxKeys int) (out []Result, next []byte, done bool, err error) {
	c := v.c
	instr := c.rec != nil
	if instr {
		defer func(t time.Time) { c.rec.ScanChunk.ObserveSince(t) }(time.Now())
	}
	tsq = min(tsq, v.ts()) // later commits share the captured memtables
	hint := keyHash(start)
	sc := c.getScanScratch(hint)
	defer c.putScanScratch(hint, sc)
	defer sc.pins.Release() // the blocks the cursors viewed, once verified

	active, frozen := v.esnap.MemTables()
	mems := sc.mems[:1]
	mems[0].Reset(active)
	if frozen != nil {
		mems = sc.mems[:2]
		mems[1].Reset(frozen)
	}
	for m := range mems {
		mems[m].SeekGE(start, record.MaxTs)
	}
	for i, run := range v.esnap.Runs() {
		tr, _ := run.Trust.(*trustedRun)
		if tr == nil {
			return nil, nil, false, fmt.Errorf("%w: run %d", ErrUntrustedRun, run.ID)
		}
		if tr.digest.NumLeaves == 0 {
			continue
		}
		src := sc.addRun(run.ID, tr.digest)
		if err := v.esnap.SeekRun(i, &src.it, start, &sc.pins); err != nil {
			return nil, nil, false, err
		}
		src.seekPrev()
		src.load(sc)
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
		for m := range mems {
			if mems[m].Valid() {
				pick(mems[m].Record().Key)
			}
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
		for m := range mems {
			for mem := &mems[m]; mem.Valid(); mem.Next() {
				rec := mem.Record()
				if !bytes.Equal(rec.Key, key) {
					break
				}
				if !resolved && rec.Ts <= tsq {
					resolved = true
					if rec.Kind == record.KindSet {
						// Trusted memory that never moves: deliver copies it.
						res = Result{Key: rec.Key, Value: rec.Value, Ts: rec.Ts, Found: true}
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
				src.consume(sc)
			}
		}
		if res.Found {
			results = append(results, res)
		}
	}
	sc.results = results

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
	c.stats(hint).proofBytes.Add(proofBytes)
	if instr {
		c.rec.Verify.ObserveSince(verifyStart)
		c.rec.ProofBytes.Observe(proofBytes)
	}
	if err != nil {
		return nil, nil, false, err
	}
	out, next = deliver(results, chunkEnd, done)
	return out, next, done, nil
}

// deliver copies verified rows out of the scratch: their keys and values into
// one block of exactly their size, which the returned Results alias, and,
// unless the range is done, the cursor that resumes it — the smallest key
// strictly greater than chunkEnd — into the block's tail.
func deliver(rows []Result, chunkEnd []byte, done bool) (out []Result, next []byte) {
	n := 0
	for _, r := range rows {
		n += len(r.Key) + len(r.Value)
	}
	if !done {
		n += len(chunkEnd) + 1
	}
	block := make([]byte, 0, n)
	out = make([]Result, len(rows))
	for i, r := range rows {
		off := len(block)
		block = append(block, r.Key...)
		k := len(block)
		block = append(block, r.Value...)
		out[i] = Result{Key: block[off:k:k], Value: block[k:len(block):len(block)], Ts: r.Ts, Found: true}
	}
	if !done {
		next = append(append(block, chunkEnd...), 0)[len(block):]
	}
	return out, next
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

	proof       sstable.Proof // of the current row
	first, last sstable.Proof // of the span's first and last key
	predView    record.Record // the record before the seek position
	predProof   sstable.Proof
	hasPred     bool

	span       runSpan       // what capture hands the verifier
	pred, succ record.Record // backing span.pred and span.succ
}

// seekPrev notes the record before the position the cursor was just sought
// to. A read error stays in the cursor, for scanChunk to find.
func (s *runSource) seekPrev() {
	s.predView, s.predProof, s.hasPred, _ = s.it.SeekPrev()
}

// load copies the row the cursor stands on into the arena.
func (s *runSource) load(sc *scanScratch) {
	if s.valid = s.it.Valid(); !s.valid {
		return
	}
	view := s.it.Record()
	key, value := sc.copyRow(view.Key, view.Value)
	s.rec = record.Record{Key: key, Ts: view.Ts, Kind: view.Kind, Value: value}
	s.proof = s.it.Proof()
}

// consume moves the current row into the span and the cursor to the next.
func (s *runSource) consume(sc *scanScratch) {
	if n := len(s.rows); n == 0 || !bytes.Equal(s.rows[n-1].Key, s.rec.Key) {
		if s.heads++; s.heads == 1 {
			s.first = s.proof
		}
		s.last = s.proof
	}
	s.rows = append(s.rows, s.rec)
	s.it.Next()
	s.load(sc)
}

// capture copies the rest of what verifyRunScan reads out of untrusted
// memory, appending to sc.bounds — the proofs of the span's first and last
// key, the predecessor with its proof and the proof of the row the cursor
// stopped on (the successor): at most four proofs however long the span, each
// rebuilt from its block's section as it is copied. (If the buffer has to
// grow, what was taken before stays where it is, in the old array.) It fills
// in s.span and returns the number of proof bytes copied.
func (s *runSource) capture(sc *scanScratch) (proofBytes int) {
	take := func(src []byte) []byte {
		off := len(sc.bounds)
		sc.bounds = append(sc.bounds, src...)
		return sc.bounds[off:len(sc.bounds):len(sc.bounds)]
	}
	expand := func(p sstable.Proof) []byte {
		off := len(sc.bounds)
		sc.bounds = p.AppendTo(sc.bounds)
		proofBytes += len(sc.bounds) - off
		return sc.bounds[off:len(sc.bounds):len(sc.bounds)]
	}
	sp := &s.span
	*sp = runSpan{runID: s.runID, rows: s.rows}
	if s.heads > 0 {
		sp.first = expand(s.first)
		sp.last = sp.first
		if s.heads > 1 {
			sp.last = expand(s.last)
		}
	}
	if s.hasPred {
		v := s.predView
		s.pred = record.Record{Key: take(v.Key), Ts: v.Ts, Kind: v.Kind, Value: take(v.Value), Proof: expand(s.predProof)}
		sp.pred = &s.pred
	}
	if s.valid {
		s.succ = s.rec
		s.succ.Proof = expand(s.proof)
		sp.succ = &s.succ
	}
	return proofBytes
}

// scanScratch is the enclave memory one scanChunk call works in: the arena
// its rows are copied into, the memtable cursors, the run sources with their
// row lists, the verifier's leaf and chain scratch, the boundary-proof buffer
// and the result list before deliver copies it out. One call owns it at a
// time — a stream's chunks are fetched one after another, the prefetch
// goroutine included (chunkIter) — and calls hand it on through the store's
// bounded free list, so a store keeps at most scanScratchSlots of them, none
// above scanScratchBytes: that product is what Open charges to the enclave.
type scanScratch struct {
	arena   []byte
	mems    [2]memtable.Iterator // the active memtable's, then the frozen one's
	runs    []runSource
	span    spanScratch
	bounds  []byte
	results []Result
	pins    blockcache.Pins // the blocks the run cursors read, held until verified
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

// copyRow copies key and value into the arena. (If the arena has to grow,
// the rows copied before stay where they are, in the old array.)
func (sc *scanScratch) copyRow(key, value []byte) (k, v []byte) {
	off := len(sc.arena)
	sc.arena = append(append(sc.arena, key...), value...)
	mid, n := off+len(key), len(sc.arena)
	return sc.arena[off:mid:mid], sc.arena[mid:n:n]
}

// release drops every reference the scratch holds into the arena, the
// memtables, the pinned runs and their blocks, keeping only its own
// capacity, and reports that capacity in bytes.
func (sc *scanScratch) release() (bytes int) {
	slots := sc.runs[:cap(sc.runs)] // the unused ones keep their row lists too
	for i := range slots {
		rows := slots[i].rows
		clear(rows)
		slots[i] = runSource{rows: rows[:0]}
		bytes += cap(rows) * int(unsafe.Sizeof(record.Record{}))
	}
	clear(sc.results)
	sc.runs, sc.results, sc.arena, sc.mems = sc.runs[:0], sc.results[:0], sc.arena[:0], [2]memtable.Iterator{}
	return bytes + cap(sc.runs)*int(unsafe.Sizeof(runSource{})) + cap(sc.results)*int(unsafe.Sizeof(Result{})) +
		cap(sc.span.leaves)*hashutil.Size + cap(sc.span.chain)*int(unsafe.Sizeof(chainLink{})) + cap(sc.bounds) + cap(sc.arena)
}

// getScanScratch takes a scan scratch from the slot hint, the chunk's start
// key hash, picks, or the first full one after it, or makes one.
func (c *Store) getScanScratch(hint uint64) *scanScratch {
	if sc := c.scanPool.get(hint); sc != nil {
		return sc
	}
	return new(scanScratch)
}

func (c *Store) putScanScratch(hint uint64, sc *scanScratch) {
	if sc.release() > scanScratchBytes {
		return // one oversized chunk must not pin its scratch forever
	}
	c.scanPool.put(hint, sc)
}
