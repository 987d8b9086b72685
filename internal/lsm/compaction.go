package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/memtable"
	"elsm/internal/obs"
	"elsm/internal/record"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
)

// This file implements maintenance jobs — flush, level compaction and bulk
// load — executed by the maintenance worker pool (scheduler.go). Each kind
// draws up a PLAN (phase 1); ONE driver, runPlan, runs it (phases 2 and 3):
//
//  1. plan — a brief s.mu critical section collects the immutable inputs:
//     the frozen memtable and the input runs, pinned by reference count so
//     no concurrent deletion can touch their files;
//  2. merge/build/hash — the entire rewrite (merge iteration,
//     retention filtering, SSTable builds, the listener's Merkle
//     reconstruction and output-tree hashing) runs WITHOUT the engine
//     lock: readers, the commit pipeline, and OTHER maintenance jobs on
//     disjoint level pairs proceed at full speed. Within one job the
//     merge runs as key-range parts, one goroutine each (RocksDB's
//     subcompactions), and the output files are built by a bounded
//     flusher pool (bubt-style), overlapping enclave hashing with file
//     writes; both are bounded by the worker pool's size. A relabel
//     (CompactionInfo.Relabel) has no phase 2: its output run is its input;
//  3. install — installMu serializes the authenticated verify (Job.Verify)
//     → level-vector swap → version save (the install's commit point) →
//     Job.Installed → Job.Committed window across concurrent jobs, so
//     exactly one version transition is in flight at a time; s.mu is
//     re-taken for the swap and the save.
//
// Every job ends in exactly one of Job.Committed (success) or Job.Abort (any
// failure after BeginJob), so the listener's per-job rebuild context is
// always reclaimed.

// jobPlan is phase 1's result: what about a maintenance job depends on its
// kind. swap and installed run under s.mu inside the install window.
type jobPlan struct {
	info CompactionInfo
	// frozen and bulk are the job's trusted input, at most one of them: a
	// flush's frozen memtable, a bulk load's records.
	frozen *memtable.Table
	bulk   []record.Record
	// inputs are the runs the job merges and retires, each pinned once.
	inputs []*run
	// place, when set (a bulk load), chooses info.OutputLevel once newRun is
	// built, before Verify stages it.
	place func(newRun *run)
	// swap puts newRun into the level vector and returns what takes it out
	// again should the version's save fail.
	swap func(newRun *run) (undo func())
	// installed is the kind's bookkeeping once the version is saved.
	installed func(newRun *run)
	// rec, when set (timed), receives the duration of each phase.
	rec        *obs.Recorder
	phaseStart time.Time
}

// planLocked starts a plan over inputs: it allocates the output run's ID —
// a relabel's is its input's — and pins the inputs against deletion (the
// current version holds them, so none is at zero). The caller holds s.mu,
// releases it, and hands the completed plan to runPlan, which drops the pins
// (releaseInputs).
func (s *Store) planLocked(info CompactionInfo, inputs []*run) *jobPlan {
	if info.Relabel {
		info.OutputRun = inputs[0].id
	} else {
		info.OutputRun = s.nextRunID
		s.nextRunID++
	}
	info.BlockSize = s.opts.BlockSize
	for _, r := range inputs {
		info.InputRuns = append(info.InputRuns, r.id)
		r.refs.Add(1)
	}
	s.jobPins.Add(int64(len(inputs)))
	return &jobPlan{info: info, inputs: inputs}
}

// releaseInputs drops the job's pins on its input runs. Must be called
// without s.mu.
func (s *Store) releaseInputs(p *jobPlan) {
	s.jobPins.Add(-int64(len(p.inputs)))
	s.releaseRunRefs(p.inputs)
}

// timed closes phase 1's timing and makes the driver time the other two
// (flushes and level merges; a bulk load stays out of the histograms).
func (p *jobPlan) timed(rec *obs.Recorder, phase1 time.Time) {
	if rec != nil {
		rec.CompactSnapshot.ObserveSince(phase1)
		p.rec, p.phaseStart = rec, time.Now()
	}
}

// runPlan is the driver: phases 2 and 3 of every maintenance job.
func (s *Store) runPlan(p *jobPlan) error {
	// Phase 2: merge, build and hash — lock-free.
	if !p.info.Relabel {
		p.info.Bounds = p.split(s.workers.size())
	}
	job := s.listener.BeginJob(p.info)
	newRun, err := s.buildRun(job, p)
	if err != nil {
		job.Abort()
		s.releaseInputs(p)
		return err
	}
	if p.rec != nil {
		p.rec.CompactMerge.ObserveSince(p.phaseStart)
		p.phaseStart = time.Now()
	}

	// Phase 3: verify and install the new version. installMu serializes the
	// Verify→install→Committed window across concurrent jobs. The version
	// readers pin changes only once it is saved and the listener has
	// installed: a failed save's undo restores the levels the published
	// version still lists. Either way the job then drops its
	// reference on the run it built, which deletes the run's files unless a
	// version lists it.
	defer s.releaseRunRefs([]*run{newRun})
	if p.place != nil {
		p.place(newRun)
	}
	s.installMu.Lock()
	if err = job.Verify(p.info.OutputLevel); err != nil {
		err = fmt.Errorf("%w: %w", ErrAborted, err)
	} else {
		s.mu.Lock()
		undo := p.swap(newRun)
		if err = s.saveVersionLocked(job); err != nil {
			undo()
			s.mu.Unlock()
		}
	}
	if err != nil {
		job.Abort()
		s.installMu.Unlock()
		s.releaseInputs(p)
		return err
	}
	p.installed(newRun)
	s.refreshLevelBytesLocked()
	newRun.trust = job.Installed()
	old := s.publishLocked()
	s.mu.Unlock()

	job.Committed()
	s.installMu.Unlock()
	if p.rec != nil {
		p.rec.CompactInstall.ObserveSince(p.phaseStart)
	}
	old.unpin() // the inputs' files go with the last version listing them
	s.releaseInputs(p)
	return nil
}

// buildRun returns the job's output run, holding the reference its install
// drops. A relabel's is its input run as it is: the same *run, so the
// versions before and after the move share it, and its files go only with
// the last of them.
func (s *Store) buildRun(job Job, p *jobPlan) (*run, error) {
	if p.info.Relabel {
		r := p.inputs[0]
		r.refs.Add(1)
		return r, nil
	}
	return s.runCompaction(job, p)
}

// flushFrozen persists the frozen memtable (§5.3 step w2) as a new run at
// the front of level 1, alone: a flush reads no run, and level 1 gathers
// flushed runs until its byte target sends them down (compactLevel).
func (s *Store) flushFrozen() error {
	phaseStart := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.bgErr; err != nil {
		s.mu.Unlock()
		return err
	}
	frozen := s.frozen
	if frozen == nil {
		s.mu.Unlock()
		return nil
	}
	info := CompactionInfo{
		MemtableInput:  true,
		OutputLevel:    1,
		BottomMost:     s.deepestDataLevelLocked() == 0,
		TrustedRecords: frozen.Count(),
	}
	frozenWALs := append([]string(nil), s.frozenWALs...)
	p := s.planLocked(info, nil)
	s.mu.Unlock()
	p.timed(s.opts.Obs, phaseStart)

	p.frozen = frozen
	p.swap = func(newRun *run) func() {
		oldL1 := s.levels[1]
		s.levels[1] = append([]*run{newRun}, oldL1...)
		// The version being saved accounts for every record in the frozen
		// logs about to be deleted: advance the WAL watermark in the SAME
		// save, so a crash before the deletions finish cannot make recovery
		// replay (double-apply) records the new run already holds.
		oldFlushedSeq := s.flushedWALSeq
		for _, name := range frozenWALs {
			if seq, ok := frozenWALSeq(name); ok && seq >= s.flushedWALSeq {
				s.flushedWALSeq = seq + 1
			}
		}
		return func() { s.levels[1], s.flushedWALSeq = oldL1, oldFlushedSeq }
	}
	p.installed = func(newRun *run) {
		// The flushed records are durably in the new run: delete the frozen
		// logs that carried them (Job.Installed then swaps the enclave's WAL
		// digest to the active log's chain).
		s.frozenWALs = s.frozenWALs[len(frozenWALs):]
		s.ocall(func() {
			for _, name := range frozenWALs {
				_ = s.fs.Remove(name)
			}
		})
		s.frozen = nil
		s.flushes.Add(1)
		s.bytesFlushed.Add(uint64(newRun.bytes))
		s.maint.note(func() { s.maint.flushed++ })
		frozen.Release()
	}
	return s.runPlan(p)
}

// deepestDataLevelLocked returns the deepest level holding data (0 if none).
func (s *Store) deepestDataLevelLocked() int {
	for lvl := len(s.levels) - 1; lvl >= 1; lvl-- {
		for _, r := range s.levels[lvl] {
			if len(r.tables) > 0 {
				return lvl
			}
		}
	}
	return 0
}

// Compact merges level lvl into level lvl+1 (the paper's
// COMPACTION(Li, Li+1), §5.3, under compactLevel's policy), synchronously:
// it returns once the rewrite has installed (a request to the maintenance
// scheduler, so it serializes with the jobs the scheduler discovers),
// whether or not lvl is over its target. It always rewrites: a lone run is
// read back, checked by the listener and written anew, where the
// scheduler's own job would move it by relabel.
func (s *Store) Compact(lvl int) error {
	if lvl < 1 || lvl >= s.opts.MaxLevels {
		return fmt.Errorf("lsm: compact: level %d out of range [1,%d)", lvl, s.opts.MaxLevels)
	}
	return s.runSync(&maintJob{kind: jobCompact, level: lvl})
}

// tieredRuns is about how many runs a level above the deepest holds: the
// run at its front takes each move from the level above until it is a
// tieredRuns-th of the level's target. Each extra run costs every Scan chunk
// a span proof and every Get a filter probe, so the runs a level gathers are
// bounded well below levelMultiplier. The price is on writes: a byte is
// rewritten at such a level about levelMultiplier/(2·tieredRuns) times
// before the level moves down whole, against about levelMultiplier/2 under
// full-level merges and once with no bound.
const tieredRuns = 3

// compactLevel moves level lvl down, lazy leveling's way (Dostoevsky, Dayan
// and Idreos, SIGMOD '18), with a bound on the runs a level gathers. Above
// the deepest data level, lvl's runs merge into one new run at the front of
// lvl+1 — together with lvl+1's front run while that one is under a
// tieredRuns-th of lvl+1's target — and lvl+1's other runs stay as they
// are, so every level but the deepest holds about tieredRuns runs, newest
// first. Into the deepest, lvl's runs and lvl+1's merge into lvl+1's one
// run, dropping what BottomMost lets go. Runs on a maintenance worker that
// owns both levels.
//
// A job of the scheduler's own (background) whose one input is lvl's lone
// run, with nothing of lvl+1 merged in and nothing to drop, moves that run
// to the front of lvl+1 by relabel (LevelDB's trivial move): the same run,
// its files, root and filter, with no merge, hash or write; the listener
// seals only its new level. A relabel the listener refuses
// (ErrRelabelRefused) is merged instead. Only rewrites count as
// compactions; a relabel counts as a move.
func (s *Store) compactLevel(lvl int, background bool) error {
	phaseStart := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.bgErr; err != nil {
		s.mu.Unlock()
		return err
	}
	bottom := s.deepestDataLevelLocked() <= lvl+1
	inputs := slices.Clone(s.levels[lvl])
	lower, merged := s.levels[lvl+1], 0 // merged: lower's runs among the inputs
	switch {
	case bottom:
		merged = len(lower)
	case len(inputs) > 0 && len(lower) > 0 && lower[0].bytes < s.opts.levelTarget(lvl+1)/tieredRuns:
		merged = 1
	}
	inputs = append(inputs, lower[:merged]...)
	if len(inputs) == 0 {
		s.mu.Unlock()
		return nil
	}
	info := CompactionInfo{OutputLevel: lvl + 1, BottomMost: bottom}
	info.Relabel = background && len(inputs) == 1 && merged == 0 &&
		(!bottom || s.opts.KeepVersions == 0 || inputs[0].keep == s.opts.KeepVersions)
	p := s.planLocked(info, inputs)
	s.mu.Unlock()
	if !info.Relabel {
		p.timed(s.opts.Obs, phaseStart)
	}

	p.swap = func(newRun *run) func() {
		oldUpper, oldLower := s.levels[lvl], s.levels[lvl+1]
		s.levels[lvl] = nil
		s.levels[lvl+1] = append([]*run{newRun}, oldLower[merged:]...)
		return func() { s.levels[lvl], s.levels[lvl+1] = oldUpper, oldLower }
	}
	p.installed = func(newRun *run) {
		switch {
		case info.Relabel:
			s.moves.Add(1)
			s.bytesMoved.Add(uint64(newRun.bytes))
			return
		case background:
			s.backgroundCompactions.Add(1)
		}
		s.compactions.Add(1)
		s.bytesCompacted.Add(uint64(newRun.bytes))
	}
	err := s.runPlan(p)
	if info.Relabel && errors.Is(err, ErrRelabelRefused) {
		// Merged as a request is, and still the scheduler's job.
		if err = s.compactLevel(lvl, false); err == nil {
			s.backgroundCompactions.Add(1)
		}
	}
	return err
}

// minPartRecords is the fewest trusted records (a frozen memtable's, a bulk
// load's) a key-range part is cut for: a smaller part saves less than its
// goroutine and its share of the join cost.
const minPartRecords = 256

// split chooses the job's key-range parts (CompactionInfo.Bounds), at most
// maxParts of them: at the last keys of the tables of the input run with the
// most tables, a table or more a part; without two such tables, at
// quantiles of the trusted records, minPartRecords or more a part. A table's
// last key is its index's, which the host can rewrite, but the bounds only
// balance the parts: the listener checks every record against its part's
// bounds.
func (p *jobPlan) split(maxParts int) [][]byte {
	var most []*tableHandle
	for _, r := range p.inputs {
		if len(r.tables) > len(most) {
			most = r.tables
		}
	}
	var bounds [][]byte
	add := func(key []byte) {
		if len(key) > 0 && (len(bounds) == 0 || bytes.Compare(key, bounds[len(bounds)-1]) > 0) {
			bounds = append(bounds, key)
		}
	}
	switch {
	case len(most) >= 2:
		parts := min(maxParts, len(most))
		for i := 1; i < parts; i++ {
			add(most[i*len(most)/parts-1].largest)
		}
	case p.frozen != nil:
		n := p.frozen.Count()
		parts := min(maxParts, n/minPartRecords)
		var it memtable.Iterator
		it.Reset(p.frozen)
		for i, next := 0, 1; next < parts && it.Valid(); i++ {
			if i == next*n/parts {
				add(it.Record().Key)
				next++
			}
			it.Next()
		}
	default:
		n := len(p.bulk)
		parts := min(maxParts, n/minPartRecords)
		for i := 1; i < parts; i++ {
			add(p.bulk[i*n/parts].Key)
		}
	}
	return bounds
}

// recordArena holds the key and value bytes of the records a job keeps:
// trusted-side copies taken out of the (untrusted, pinned) input blocks, in
// slabs, so a record costs no allocation of its own. A record is staged
// behind the committed bytes and stays only if committed — a dropped
// record's bytes are the scratch the next one overwrites. Slabs come from
// slabPool and go back at release, once the job's files are written; a
// record larger than a slab gets a slab of its own that is not pooled.
type recordArena struct {
	slab   []byte // current slab; len is the committed prefix
	pooled []*[arenaSlabSize]byte
}

const arenaSlabSize = 256 << 10

// slabPool, chunkPool and jobScratchPool hold job scratch between jobs. A
// sync.Pool drops what it holds after two collections, so scratch left by
// one burst of maintenance does not stay resident.
var (
	slabPool       = sync.Pool{New: func() any { return new([arenaSlabSize]byte) }}
	chunkPool      = sync.Pool{New: func() any { return new([recordListChunk]record.Record) }}
	jobScratchPool = sync.Pool{New: func() any { return new(jobScratch) }}
)

// stage copies key and value into the arena without committing them.
func (a *recordArena) stage(key, value []byte) (k, v []byte) {
	n := len(key) + len(value)
	if cap(a.slab)-len(a.slab) < n {
		if n > arenaSlabSize {
			a.slab = make([]byte, 0, n)
		} else {
			slab := slabPool.Get().(*[arenaSlabSize]byte)
			a.pooled = append(a.pooled, slab)
			a.slab = slab[:0]
		}
	}
	buf := a.slab[len(a.slab) : len(a.slab)+n : len(a.slab)+n]
	copy(buf, key)
	copy(buf[len(key):], value)
	return buf[:len(key):len(key)], buf[len(key):]
}

// commit keeps the n bytes last staged.
func (a *recordArena) commit(n int) { a.slab = a.slab[:len(a.slab)+n] }

// release hands the pooled slabs back; no record staged in them may be read
// afterwards.
func (a *recordArena) release() {
	for _, slab := range a.pooled {
		slabPool.Put(slab)
	}
	clear(a.pooled)
	*a = recordArena{pooled: a.pooled[:0]}
}

// recordList is the records a job keeps, in merge order, in fixed-size
// chunks from chunkPool: a run's worth of records grows without ever being
// copied.
type recordList [][]record.Record

const recordListChunk = 1024

func (l *recordList) add(rec record.Record) {
	n := len(*l)
	if n == 0 || len((*l)[n-1]) == recordListChunk {
		*l = append(*l, chunkPool.Get().(*[recordListChunk]record.Record)[:0])
		n++
	}
	(*l)[n-1] = append((*l)[n-1], rec)
}

// release hands the chunks back, cleared so the pool keeps no record bytes
// alive.
func (l *recordList) release() {
	for _, chunk := range *l {
		clear(chunk)
		chunkPool.Put((*[recordListChunk]record.Record)(chunk[:recordListChunk]))
	}
	l.forget()
}

// forget empties a list of sub-slices of chunks another list owns.
func (l *recordList) forget() {
	clear(*l)
	*l = (*l)[:0]
}

// mergePart is one key-range part of a job: the merge of every input over
// [lo, hi), which copies the records it keeps into its own arena and
// chunks. Its iterators are values, reset for each job.
type mergePart struct {
	idx     int // the part's index, as Job.Filter gets it
	mem     memtable.Iterator
	bulk    sliceIter
	runs    []RunIter
	sources []mergeSource
	m       mergeIter
	arena   recordArena
	kept    recordList
	curKey  []byte
	dropped uint64 // records the retention policy dropped
	err     error  // the read error that ended an input, if one did
}

// open points the part's sources at p's inputs over [lo, hi).
func (pt *mergePart) open(idx int, p *jobPlan, lo, hi []byte) {
	pt.idx = idx
	pt.sources = pt.sources[:0]
	switch {
	case p.frozen != nil:
		pt.mem.Reset(p.frozen)
		pt.sources = append(pt.sources, mergeSource{runID: MemtableRunID, iter: &pt.mem})
	case p.bulk != nil:
		pt.bulk = sliceIter{recs: p.bulk}
		pt.sources = append(pt.sources, mergeSource{runID: MemtableRunID, iter: &pt.bulk})
	}
	pt.runs = slices.Grow(pt.runs[:0], len(p.inputs))[:len(p.inputs)]
	for i, r := range p.inputs {
		pt.runs[i] = RunIter{tables: r.tables}
		pt.sources = append(pt.sources, mergeSource{runID: r.id, iter: &pt.runs[i]})
	}
	if lo != nil {
		for _, src := range pt.sources {
			src.iter.SeekGE(lo, record.MaxTs)
		}
	}
	pt.m.reset(pt.sources, hi)
}

// release hands the part's slabs and chunks back and lets go of the job.
func (pt *mergePart) release() {
	pt.arena.release()
	pt.kept.release()
	clear(pt.runs)
	clear(pt.sources)
	*pt = mergePart{
		runs:    pt.runs[:0],
		sources: pt.sources[:0],
		arena:   pt.arena,
		kept:    pt.kept,
		curKey:  pt.curKey[:0],
	}
}

// outFile is one output table of a job: its records, as sub-slices of the
// parts' chunks, and what building it takes and gives.
type outFile struct {
	recs   recordList
	num    uint64
	proofs sstable.ProofAppender
	th     *tableHandle
	err    error
}

// jobScratch is what a job runs on besides its records: the parts, the
// files, and the lists that join them. It goes back to jobScratchPool when
// the job's files are written, keeping its arrays, none of their contents.
type jobScratch struct {
	parts   []mergePart
	kept    recordList // every part's kept records, in part order
	files   []outFile
	pinned  []uint64
	scratch []byte
	wg      sync.WaitGroup
}

// nextFile appends an empty file, reusing an earlier job's record list.
func (js *jobScratch) nextFile() *outFile {
	n := len(js.files)
	js.files = slices.Grow(js.files, 1)[:n+1]
	f := &js.files[n]
	f.recs = f.recs[:0]
	return f
}

func (js *jobScratch) release() {
	for i := range js.parts {
		js.parts[i].release()
	}
	js.kept.forget()
	for i := range js.files {
		f := &js.files[i]
		f.recs.forget()
		*f = outFile{recs: f.recs}
	}
	js.parts, js.files = js.parts[:0], js.files[:0]
	js.pinned, js.scratch = js.pinned[:0], js.scratch[:0]
	jobScratchPool.Put(js)
}

// runCompaction executes the merge: the key space is cut into the parts
// CompactionInfo.Bounds names, each merged on its own goroutine, every input
// record copied once into its part's arena and streamed through job.Filter;
// the version/tombstone retention policy decides what stays. The parts' kept
// records, joined in key order, are split into table files exactly as one
// merge would split them, built by a bounded flusher pool, each with a proof
// appender from the job so the authentication layer embeds proofs as the
// blocks are framed. Runs entirely without the engine lock: its inputs are
// immutable (a frozen memtable and pinned runs). On error it leaves no
// output file behind; aborting the job is the caller's.
func (s *Store) runCompaction(job Job, p *jobPlan) (*run, error) {
	js := jobScratchPool.Get().(*jobScratch)
	// Every return comes after the last flusher has finished with the
	// records.
	defer js.release()

	// Step m1: bulk-load input files into untrusted memory for streaming.
	for _, r := range p.inputs {
		for _, th := range r.tables {
			js.pinned = append(js.pinned, th.fileNum)
		}
	}
	s.pinViews(js.pinned)
	defer s.unpinViews(js.pinned)

	// Step m2: merge with retention policy, part by part, streaming every
	// input record through Filter (the authenticated compaction rebuilds
	// input and output Merkle trees from this stream).
	bounds := p.info.Bounds
	js.parts = slices.Grow(js.parts[:0], len(bounds)+1)[:len(bounds)+1]
	for i := range js.parts {
		var lo, hi []byte
		if i > 0 {
			lo = bounds[i-1]
		}
		if i < len(bounds) {
			hi = bounds[i]
		}
		js.parts[i].open(i, p, lo, hi)
	}
	for i := 1; i < len(js.parts); i++ {
		js.wg.Add(1)
		go func(pt *mergePart) {
			defer js.wg.Done()
			s.mergePart(job, pt, p.info.BottomMost)
		}(&js.parts[i])
	}
	s.mergePart(job, &js.parts[0], p.info.BottomMost)
	js.wg.Wait()
	for i := range js.parts {
		s.recordsDropped.Add(js.parts[i].dropped)
	}
	for i := range js.parts {
		pt := &js.parts[i]
		// An input that stopped on a failed read is an I/O error, not a
		// short run: report it before anyone compares roots over the
		// truncated stream.
		if pt.err != nil {
			return nil, pt.err
		}
		js.kept = append(js.kept, pt.kept...)
	}

	// Split the output into files by the bytes each record will occupy —
	// key, value and its share of the proofs it is about to get: its chain
	// part, and a group section where it opens a group or a file. Their
	// sizes are known now that the stream (and with it the output tree's
	// shape) is complete, so TableFileSize bounds a flush's files and a
	// compaction's alike. The cut runs over the joined stream, so the files
	// are the ones a single merge writes, however many parts there were.
	sizer, err := job.NewProofAppender()
	if err != nil {
		return nil, err
	}
	var (
		f        = js.nextFile()
		curBytes int
		group    = -1 // of the last record sized in this file
	)
	for _, chunk := range js.kept {
		start := 0
		for i, rec := range chunk {
			curBytes += rec.Size()
			if sizer != nil {
				g, err := sizer.Group(rec)
				if err != nil {
					return nil, err
				}
				if g != group {
					js.scratch = sizer.AppendSection(js.scratch[:0])
					curBytes += len(js.scratch)
					group = g
				}
				js.scratch = sizer.AppendChain(js.scratch[:0])
				curBytes += len(js.scratch)
			}
			if curBytes >= s.opts.TableFileSize {
				f.recs = append(f.recs, chunk[start:i+1])
				f = js.nextFile()
				start, curBytes, group = i+1, 0, -1
			}
		}
		if start < len(chunk) {
			f.recs = append(f.recs, chunk[start:])
		}
	}
	if len(f.recs) == 0 {
		js.files = js.files[:len(js.files)-1]
	}

	// Write output files, bubt-style: each output SSTable is independent
	// once the merge has partitioned the stream, so build/hash/write them
	// with a bounded set of flushers — the job's goroutine and up to
	// Workers−1 more, each taking the next file until none is left —
	// overlapping enclave hashing with file I/O. File numbers are
	// pre-assigned so the on-disk order matches the key order regardless
	// of completion order. Each file gets its own proof appender over the
	// finalized whole-stream output tree.
	files := js.files
	for i := range files {
		files[i].num = s.nextFileNum.Add(1) - 1
		if files[i].proofs, err = job.NewProofAppender(); err != nil {
			return nil, err
		}
	}
	runFilter := job.RunFilter() // stored in the run's first table
	// No flusher takes a file before every flusher holds a builder, so a
	// job takes as many builders as it has flushers however the scheduler
	// runs them. Each takes its own, from its own P's share of the pool.
	var (
		next  atomic.Int64
		ready sync.WaitGroup
	)
	flush := func() {
		tb := tableBuildPool.Get().(*tableBuild)
		defer tb.release()
		ready.Done()
		ready.Wait()
		for fi := int(next.Add(1) - 1); fi < len(files); fi = int(next.Add(1) - 1) {
			f, rf := &files[fi], runFilter
			if fi > 0 {
				rf = nil
			}
			f.th, f.err = s.writeRunFile(tb, f.num, f.recs, f.proofs, rf)
		}
	}
	flushers := min(s.workers.size(), len(files))
	ready.Add(flushers)
	for w := 1; w < flushers; w++ {
		js.wg.Add(1)
		go func() {
			defer js.wg.Done()
			flush()
		}()
	}
	if flushers > 0 {
		flush()
	}
	js.wg.Wait()
	for i := range files {
		if err := files[i].err; err != nil {
			var written []uint64
			for _, f := range files {
				if f.th != nil {
					written = append(written, f.th.fileNum)
				}
			}
			s.removeFiles(written)
			return nil, err
		}
	}
	newRun := &run{id: p.info.OutputRun, tables: make([]*tableHandle, 0, len(files))}
	if p.info.BottomMost {
		newRun.keep = s.opts.KeepVersions
	}
	newRun.refs.Store(1) // the building job's, dropped when its install ends
	for _, f := range files {
		newRun.add(f.th)
	}
	return newRun, nil
}

// mergePart runs one part's merge. The iterators hand out views of the
// pinned, untrusted blocks: the record is copied into the part's arena
// FIRST, and the retention decision, the listener's digest and the bytes
// written all come from that copy — the view is never read again, so the
// host cannot change a record between its hashing and its write. A key's
// versions all lie in one part, so the policy's state is the part's own.
func (s *Store) mergePart(job Job, pt *mergePart, bottomMost bool) {
	var (
		m        = &pt.m
		haveKey  bool
		nKept    int
		dropRest bool
	)
	for m.Valid() {
		view, src := m.Record()
		key, value := pt.arena.stage(view.Key, view.Value)
		rec := record.Record{Key: key, Ts: view.Ts, Kind: view.Kind, Value: value}
		if !haveKey || !bytes.Equal(rec.Key, pt.curKey) {
			pt.curKey = append(pt.curKey[:0], rec.Key...)
			haveKey = true
			nKept = 0
			dropRest = false
		}
		drop := false
		switch {
		case dropRest:
			drop = true
		case rec.Kind == record.KindDelete && s.opts.KeepVersions > 0:
			// Version GC enabled: a tombstone shadows all older
			// versions; at the bottom level the tombstone itself is
			// also dropped (§5.4). With KeepVersions == 0 the store
			// retains full history — tombstones and shadowed versions
			// stay so historical GET(k, tsq) remains answerable.
			dropRest = true
			if bottomMost {
				drop = true
			} else {
				nKept++
			}
		default:
			if s.opts.KeepVersions > 0 && nKept >= s.opts.KeepVersions {
				drop = true
			} else {
				nKept++
			}
		}
		job.Filter(pt.idx, src, rec, drop)
		if drop {
			pt.dropped++
		} else {
			pt.arena.commit(len(key) + len(value))
			pt.kept.add(rec)
		}
		m.Next()
	}
	pt.err = m.Close()
}

// tableBuildPool recycles what a flusher builds its tables with: the
// in-enclave staging buffer, whose contents are fully copied out during the
// flush OCall, and the builder's block, filter and index buffers. Both can
// be reused as soon as writeRunFile returns.
var tableBuildPool = sync.Pool{New: func() any { return new(tableBuild) }}

type tableBuild struct {
	buf memBuf
	b   sstable.Builder
}

// release hands tb back with no reference into the job that used it: the
// builder lets go of the last table's proof appender.
func (tb *tableBuild) release() {
	tb.b.Reset(nil, sstable.BuilderOptions{})
	tableBuildPool.Put(tb)
}

// writeRunFile builds one output SSTable from recs, which it only reads;
// proofs (nil for none) embeds each record's proof as its block is framed.
// The table is built inside the enclave, in tb (pooled: parallel flushers
// churn one table-sized allocation per file otherwise), and flushed to the
// untrusted FS in one OCall (step m3), charging the boundary copy for the
// file bytes. Safe to call concurrently for distinct files of the same job,
// each with its own tb (fileNum is pre-assigned by the caller so output
// order is deterministic).
func (s *Store) writeRunFile(tb *tableBuild, fileNum uint64, recs recordList, proofs sstable.ProofAppender, runFilter []byte) (*tableHandle, error) {
	buf, b := &tb.buf, &tb.b
	// A file is cut once its records reach TableFileSize; the index, filter
	// and footer add a little, and a run's first table its run filter. One
	// allocation covers a new buffer.
	buf.data = slices.Grow(buf.data[:0], s.opts.TableFileSize+s.opts.TableFileSize/8+len(runFilter))
	b.Reset(buf, sstable.BuilderOptions{
		BlockSize: s.opts.BlockSize,
		Transform: s.opts.Transform,
		FileNum:   fileNum,
		Proofs:    proofs,
		RunFilter: runFilter,
	})
	for _, part := range recs {
		for _, rec := range part {
			if err := b.Add(rec); err != nil {
				return nil, err
			}
		}
	}
	if _, err := b.Finish(); err != nil {
		return nil, err
	}

	// Step m3: one world switch to flush the file to the untrusted FS.
	name := tableName(fileNum)
	s.enclave.Copy(len(buf.data))
	var werr error
	var f vfs.File
	s.ocall(func() {
		f, werr = s.fs.Create(name)
		if werr != nil {
			return
		}
		if _, werr = f.Append(buf.data); werr != nil {
			return
		}
		werr = f.Sync()
	})
	if werr != nil {
		return nil, fmt.Errorf("lsm: write table %s: %w", name, werr)
	}

	return s.adoptTable(fileNum, f)
}

// removeFiles closes and deletes table files (guarded by fileMu, not s.mu:
// by the time a run's files are removed, no version and no pin references
// it), and drops their blocks from the cache in one call.
func (s *Store) removeFiles(fileNums []uint64) {
	if s.opts.Cache != nil {
		s.opts.Cache.DropFiles(fileNums...)
	}
	for _, fn := range fileNums {
		s.fileMu.Lock()
		of, ok := s.files[fn]
		delete(s.files, fn)
		s.fileMu.Unlock()
		if !ok {
			continue
		}
		if of.metaRegion != nil {
			of.metaRegion.Free()
		}
		name := tableName(fn)
		s.ocall(func() {
			of.file.Close()
			_ = s.fs.Remove(name)
		})
	}
}

// BulkLoad populates an empty store with pre-sorted records, placing them
// directly in the deepest level that fits. This mirrors YCSB's load phase
// at scale without paying per-record write amplification; the records
// stream through a listener Job like a compaction's (with
// CompactionInfo.BulkLoad set), so the output is fully authenticated. It is
// an exclusive request to the maintenance scheduler: it runs with no flush
// or compaction in flight.
func (s *Store) BulkLoad(recs []record.Record) error {
	var maxTs uint64
	var total int64
	for i := range recs {
		if i > 0 && record.CompareRecords(recs[i-1], recs[i]) >= 0 {
			return fmt.Errorf("%w: index %d", ErrBadBulkLoad, i)
		}
		total += int64(recs[i].Size())
		if recs[i].Ts > maxTs {
			maxTs = recs[i].Ts
		}
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock() // the empty-store check must not race a commit
	return s.runSync(&maintJob{kind: jobExclusive, fn: func() error { return s.bulkLoadJob(recs, total, maxTs) }})
}

// bulkLoadJob is the worker-side bulk load (caller holds commitMu, so no
// commits interleave with the empty-store check). A bulk load is a version
// transition like any other: it installs through the driver, serialized
// with concurrent background installs.
func (s *Store) bulkLoadJob(recs []record.Record, total int64, maxTs uint64) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.mem.Count() > 0 || s.frozen != nil || s.deepestDataLevelLocked() > 0 {
		s.mu.Unlock()
		return fmt.Errorf("lsm: bulk load requires an empty store")
	}
	lvl := 1
	for lvl < s.opts.MaxLevels && s.opts.levelTarget(lvl) < total {
		lvl++
	}
	p := s.planLocked(CompactionInfo{OutputLevel: lvl, BottomMost: true, BulkLoad: true, TrustedRecords: len(recs)}, nil)
	// The loaded timestamps are spent from here on, BEFORE the version that
	// lists the loaded run is saved with its timestamp floor. Nothing can
	// observe the early raise (the job is exclusive, the store is empty and
	// commitMu is held); a failed install leaves only a harmless gap.
	s.EnsureTs(maxTs)
	s.mu.Unlock()

	p.bulk = recs
	p.place = func(newRun *run) {
		// Place the run by its ACTUAL size: the listener may have inflated
		// records (embedded proofs are several times the record size), and a
		// run installed over its level target would be sent down at once.
		for lvl < s.opts.MaxLevels && s.opts.levelTarget(lvl) < newRun.bytes {
			lvl++
		}
		p.info.OutputLevel = lvl
	}
	p.swap = func(newRun *run) func() {
		s.levels[lvl] = []*run{newRun}
		return func() { s.levels[lvl] = nil }
	}
	p.installed = func(*run) {}
	return s.runPlan(p)
}

// sliceIter iterates a pre-sorted record slice.
type sliceIter struct {
	recs []record.Record
	pos  int
}

var _ record.Iterator = (*sliceIter)(nil)

func (it *sliceIter) Valid() bool           { return it.pos < len(it.recs) }
func (it *sliceIter) Next()                 { it.pos++ }
func (it *sliceIter) Record() record.Record { return it.recs[it.pos] }
func (it *sliceIter) Close() error          { return nil }

func (it *sliceIter) SeekGE(key []byte, ts uint64) {
	lo, hi := 0, len(it.recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if record.Compare(it.recs[mid].Key, it.recs[mid].Ts, key, ts) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	it.pos = lo
}

// memBuf is an in-enclave staging buffer implementing vfs.File, used to
// assemble an SSTable before the single flush OCall.
type memBuf struct {
	data []byte
}

var _ vfs.File = (*memBuf)(nil)

func (m *memBuf) Append(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *memBuf) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	for int64(len(m.data)) < end {
		m.data = append(m.data, 0)
	}
	copy(m.data[off:end], p)
	return len(p), nil
}

func (m *memBuf) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memBuf) Truncate(size int64) error {
	if size < 0 || size > int64(len(m.data)) {
		return fmt.Errorf("lsm: membuf truncate %d out of range", size)
	}
	m.data = m.data[:size]
	return nil
}

func (m *memBuf) Size() int64   { return int64(len(m.data)) }
func (m *memBuf) Bytes() []byte { return m.data }
func (m *memBuf) Sync() error   { return nil }
func (m *memBuf) Close() error  { return nil }
