package lsm

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

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
//  2. merge/build/hash — the entire level rewrite (merge iteration,
//     retention filtering, SSTable builds, the listener's Merkle
//     reconstruction and output-tree hashing) runs WITHOUT the engine
//     lock: readers, the commit pipeline, and OTHER maintenance jobs on
//     disjoint level pairs proceed at full speed. Within one job the
//     output files are built by a bounded flusher pool (bubt-style),
//     overlapping enclave hashing with file writes;
//  3. install — installMu serializes the authenticated verify (Job.Verify)
//     → level-vector swap → manifest persist → Job.Installed →
//     Job.Committed window across concurrent jobs, so exactly one version
//     transition (and one staged transition seal) is in flight at a time;
//     s.mu is re-taken only for the swap itself.
//
// Every job ends in exactly one of Job.Committed (success) or Job.Abort (any
// failure after BeginJob), so the listener's per-job rebuild context is
// always reclaimed.

// jobPlan is phase 1's result: what about a maintenance job depends on its
// kind. swap and installed run under s.mu inside the install window.
type jobPlan struct {
	info CompactionInfo
	// mem streams the job's trusted input (the frozen memtable, a bulk
	// load's records); nil for a level compaction.
	mem record.Iterator
	// inputs are the runs the job merges and retires, each pinned once.
	inputs []*run
	// swap puts newRun into the level vector and returns what takes it out
	// again should the manifest write fail.
	swap func(newRun *run) (undo func())
	// installed is the kind's bookkeeping once the manifest is durable.
	installed func(newRun *run)
	// rec, when set (timed), receives the duration of each phase.
	rec        *obs.Recorder
	phaseStart time.Time
}

// planLocked starts a plan over inputs: it allocates the output run's ID
// and pins the inputs against deletion. The caller holds s.mu, releases it,
// and hands the completed plan to runPlan.
func (s *Store) planLocked(info CompactionInfo, inputs []*run) *jobPlan {
	info.OutputRun = s.nextRunID
	info.BlockSize = s.opts.BlockSize
	s.nextRunID++
	for _, r := range inputs {
		info.InputRuns = append(info.InputRuns, r.id)
		s.retainRunLocked(r)
	}
	return &jobPlan{info: info, inputs: inputs}
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
	var sources []mergeSource
	if p.mem != nil {
		sources = append(sources, mergeSource{runID: MemtableRunID, iter: p.mem})
	}
	for _, r := range p.inputs {
		sources = append(sources, mergeSource{runID: r.id, iter: newRunIter(r)})
	}
	job := s.listener.BeginJob(p.info)
	newRun, err := s.runCompaction(job, p.info, sources, p.inputs)
	if err != nil {
		job.Abort()
		s.releaseRunRefs(p.inputs, 1) // job pins only: the version still owns them
		return err
	}
	if p.rec != nil {
		p.rec.CompactMerge.ObserveSince(p.phaseStart)
		p.phaseStart = time.Now()
	}

	// Phase 3: verify and install the new version. installMu serializes the
	// Verify→install→Committed window across concurrent jobs.
	s.installMu.Lock()
	if err = job.Verify(); err != nil {
		err = fmt.Errorf("%w: %w", ErrAborted, err)
	} else {
		s.mu.Lock()
		undo := p.swap(newRun)
		if err = s.persistManifestLocked(); err != nil {
			undo()
			s.mu.Unlock()
		}
	}
	if err != nil {
		job.Abort()
		s.installMu.Unlock()
		s.releaseRunRefs(p.inputs, 1) // job pins only: the version still owns them
		s.removeFiles(newRun.fileNums())
		return err
	}
	s.retireRunsLocked(p.inputs)
	p.installed(newRun)
	s.refreshLevelBytesLocked()
	job.Installed()
	s.mu.Unlock()

	job.Committed()
	s.installMu.Unlock()
	if p.rec != nil {
		p.rec.CompactInstall.ObserveSince(p.phaseStart)
	}
	s.releaseRunRefs(p.inputs, 2) // retired version reference + job pin
	return nil
}

// flushFrozen persists the frozen memtable (§5.3 step w2). In normal
// (leveled) mode it is merged with level 1's runs; with compaction disabled
// each flush prepends a fresh immutable run to level 1 instead.
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
	info := CompactionInfo{MemtableInput: true, OutputLevel: 1}
	var inputs []*run
	if s.opts.DisableCompaction {
		info.BottomMost = s.deepestDataLevelLocked() == 0
	} else {
		info.BottomMost = s.deepestDataLevelLocked() <= 1
		inputs = append([]*run(nil), s.levels[1]...)
	}
	frozenWALs := append([]string(nil), s.frozenWALs...)
	p := s.planLocked(info, inputs)
	s.mu.Unlock()
	p.timed(s.opts.Obs, phaseStart)

	p.mem = frozen.Iter()
	p.swap = func(newRun *run) func() {
		oldL1 := s.levels[1]
		if s.opts.DisableCompaction {
			s.levels[1] = append([]*run{newRun}, oldL1...)
		} else {
			s.levels[1] = []*run{newRun}
		}
		// The manifest being installed accounts for every record in the
		// frozen logs about to be deleted: advance the WAL watermark in the
		// SAME manifest write, so a crash before the deletions finish cannot
		// make recovery replay (double-apply) records the new run already
		// holds.
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
// COMPACTION(Li, Li+1), §5.3), synchronously: it returns once the rewrite
// has installed (a request to the maintenance scheduler, so it serializes
// with the jobs the scheduler discovers), whether or not lvl is over its
// target.
func (s *Store) Compact(lvl int) error {
	if lvl < 1 || lvl >= s.opts.MaxLevels {
		return fmt.Errorf("lsm: compact: level %d out of range [1,%d)", lvl, s.opts.MaxLevels)
	}
	return s.runSync(&maintJob{kind: jobCompact, level: lvl})
}

// compactLevel merges all runs of lvl and lvl+1 into a single new run at
// lvl+1. Runs on a maintenance worker that owns both levels.
func (s *Store) compactLevel(lvl int) error {
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
	inputs := append(append([]*run(nil), s.levels[lvl]...), s.levels[lvl+1]...)
	if len(inputs) == 0 {
		s.mu.Unlock()
		return nil
	}
	info := CompactionInfo{OutputLevel: lvl + 1, BottomMost: s.deepestDataLevelLocked() <= lvl+1}
	p := s.planLocked(info, inputs)
	s.mu.Unlock()
	p.timed(s.opts.Obs, phaseStart)

	p.swap = func(newRun *run) func() {
		oldUpper, oldLower := s.levels[lvl], s.levels[lvl+1]
		s.levels[lvl], s.levels[lvl+1] = nil, []*run{newRun}
		return func() { s.levels[lvl], s.levels[lvl+1] = oldUpper, oldLower }
	}
	p.installed = func(newRun *run) {
		s.compactions.Add(1)
		s.bytesCompacted.Add(uint64(newRun.bytes))
	}
	return s.runPlan(p)
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

// slabPool and chunkPool hold fixed-size job scratch between jobs. A
// sync.Pool drops what it holds after two collections, so scratch left by
// one burst of maintenance does not stay resident.
var (
	slabPool  = sync.Pool{New: func() any { return new([arenaSlabSize]byte) }}
	chunkPool = sync.Pool{New: func() any { return new([recordListChunk]record.Record) }}
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
	*a = recordArena{}
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
	*l = nil
}

// runCompaction executes the merge: every input record is copied once into
// the job's arena and streamed through job.Filter, the version/tombstone
// retention policy decides what stays, and the kept records are split into
// table files built by a bounded flusher pool, each with a proof appender
// from the job so the authentication layer embeds proofs as the blocks are
// framed. Runs entirely without the engine lock: its inputs are immutable (a
// frozen memtable and pinned runs). On error it leaves no output file
// behind; aborting the job is the caller's.
func (s *Store) runCompaction(job Job, info CompactionInfo, sources []mergeSource, inputs []*run) (*run, error) {
	// Step m1: bulk-load input files into untrusted memory for streaming.
	var pinnedFiles []uint64
	for _, r := range inputs {
		pinnedFiles = append(pinnedFiles, r.fileNums()...)
	}
	s.pinViews(pinnedFiles)
	defer s.unpinViews(pinnedFiles)

	m := newMergeIter(sources)

	// Step m2: merge with retention policy, streaming every input record
	// through Filter (the authenticated compaction rebuilds input and
	// output Merkle trees from this stream). The iterators hand out views
	// of the pinned, untrusted blocks: the record is copied into the arena
	// FIRST, and the retention decision, the listener's digest and the
	// bytes written all come from that copy — the view is never read again,
	// so the host cannot change a record between its hashing and its write.
	var (
		arena    recordArena
		kept     recordList
		curKey   []byte
		haveKey  bool
		nKept    int
		dropRest bool
	)
	// Every return comes after the last flusher has finished with the
	// records.
	defer func() {
		arena.release()
		kept.release()
	}()
	for m.Valid() {
		view, src := m.Record()
		key, value := arena.stage(view.Key, view.Value)
		rec := record.Record{Key: key, Ts: view.Ts, Kind: view.Kind, Value: value}
		if !haveKey || !bytes.Equal(rec.Key, curKey) {
			curKey = append(curKey[:0], rec.Key...)
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
			if info.BottomMost {
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
		job.Filter(src, rec, drop)
		if drop {
			s.recordsDropped.Add(1)
		} else {
			arena.commit(len(key) + len(value))
			kept.add(rec)
		}
		m.Next()
	}
	// An input that stopped on a failed read is an I/O error, not a short
	// run: report it before anyone compares roots over the truncated stream.
	if err := m.Close(); err != nil {
		return nil, err
	}

	// Split the output into files by the bytes each record will occupy —
	// key, value and its share of the proofs it is about to get: its chain
	// part, and a group section where it opens a group or a file. Their
	// sizes are known now that the stream (and with it the output tree's
	// shape) is complete, so TableFileSize bounds a flush's files and a
	// compaction's alike.
	sizer, err := job.NewProofAppender()
	if err != nil {
		return nil, err
	}
	var (
		fileRecs recordList // one file's records, as sub-slices of kept's chunks
		files    []recordList
		curBytes int
		group    = -1 // of the last record sized in this file
		scratch  []byte
	)
	for _, chunk := range kept {
		start := 0
		for i, rec := range chunk {
			curBytes += rec.Size()
			if sizer != nil {
				g, err := sizer.Group(rec)
				if err != nil {
					return nil, err
				}
				if g != group {
					scratch = sizer.AppendSection(scratch[:0])
					curBytes += len(scratch)
					group = g
				}
				scratch = sizer.AppendChain(scratch[:0])
				curBytes += len(scratch)
			}
			if curBytes >= s.opts.TableFileSize {
				files = append(files, append(fileRecs, chunk[start:i+1]))
				fileRecs, start, curBytes, group = nil, i+1, 0, -1
			}
		}
		if start < len(chunk) {
			fileRecs = append(fileRecs, chunk[start:])
		}
	}
	if len(fileRecs) > 0 {
		files = append(files, fileRecs)
	}

	// Write output files, bubt-style: each output SSTable is independent
	// once the merge has partitioned the stream, so build/hash/write them
	// with a bounded set of flushers — the job's goroutine and up to
	// Workers−1 more, each taking the next file until none is left —
	// overlapping enclave hashing with file I/O. File numbers are
	// pre-assigned so the on-disk order matches the key order regardless
	// of completion order. Each file gets its own proof appender over the
	// finalized whole-stream output tree.
	handles := make([]*tableHandle, len(files))
	errs := make([]error, len(files))
	fileNums := make([]uint64, len(files))
	proofs := make([]sstable.ProofAppender, len(files))
	for i := range files {
		fileNums[i] = s.nextFileNum.Add(1) - 1
		if proofs[i], err = job.NewProofAppender(); err != nil {
			return nil, err
		}
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	flush := func() {
		tb := tableBuildPool.Get().(*tableBuild)
		defer tb.release()
		for fi := int(next.Add(1) - 1); fi < len(files); fi = int(next.Add(1) - 1) {
			handles[fi], errs[fi] = s.writeRunFile(tb, fileNums[fi], files[fi], proofs[fi])
		}
	}
	for w := 1; w < min(s.workers.size(), len(files)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flush()
		}()
	}
	if len(files) > 0 {
		flush()
	}
	wg.Wait()
	newRun := &run{id: info.OutputRun}
	newRun.refs.Store(1) // the version reference, effective at install
	for _, err := range errs {
		if err != nil {
			var written []uint64
			for _, th := range handles {
				if th != nil {
					written = append(written, th.meta.FileNum)
				}
			}
			s.removeFiles(written)
			return nil, err
		}
	}
	for _, th := range handles {
		newRun.tables = append(newRun.tables, th)
		newRun.bytes += th.meta.Size
		newRun.entries += th.meta.NumEntries
	}
	return newRun, nil
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
func (s *Store) writeRunFile(tb *tableBuild, fileNum uint64, recs recordList, proofs sstable.ProofAppender) (*tableHandle, error) {
	buf, b := &tb.buf, &tb.b
	buf.data = buf.data[:0]
	b.Reset(buf, sstable.BuilderOptions{
		BlockSize: s.opts.BlockSize,
		Transform: s.opts.Transform,
		FileNum:   fileNum,
		Proofs:    proofs,
	})
	for _, part := range recs {
		for _, rec := range part {
			if err := b.Add(rec); err != nil {
				return nil, err
			}
		}
	}
	meta, err := b.Finish()
	if err != nil {
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

	of := &openFile{file: f}
	if s.opts.MmapReads {
		s.ocall(func() { of.view = f.Bytes() })
	}
	s.fileMu.Lock()
	s.files[fileNum] = of
	s.fileMu.Unlock()

	t, err := sstable.Open(f, fileNum, &storeSource{s: s})
	if err != nil {
		return nil, err
	}
	of.metaRegion = s.enclave.Alloc(t.MetadataBytes())
	return &tableHandle{meta: meta, table: t, name: name}, nil
}

// removeFiles closes and deletes table files (guarded by fileMu, not s.mu:
// by the time a run's files are removed, no version and no pin references
// it).
func (s *Store) removeFiles(fileNums []uint64) {
	for _, fn := range fileNums {
		s.fileMu.Lock()
		of, ok := s.files[fn]
		delete(s.files, fn)
		s.fileMu.Unlock()
		if !ok {
			continue
		}
		if s.opts.Cache != nil {
			s.opts.Cache.DropFile(fn)
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
	p := s.planLocked(CompactionInfo{OutputLevel: lvl, BottomMost: true, BulkLoad: true}, nil)
	// The loaded timestamps are spent from here on, BEFORE Job.Verify stages
	// the transition seal: that seal's timestamp floor is what recovery
	// adopts if a crash lands between the manifest rename and the next seal,
	// and the only other floor is the manifest's, which is plain untrusted
	// JSON. Nothing can observe the early raise (the job is exclusive, the
	// store is empty and commitMu is held); a failed install leaves only a
	// harmless gap.
	s.EnsureTs(maxTs)
	s.mu.Unlock()

	p.mem = newSliceIter(recs)
	p.swap = func(newRun *run) func() {
		// Place the run by its ACTUAL size: the listener may have inflated
		// records (embedded proofs are several times the record size), and a
		// run installed over its level target would trigger a pathological
		// full-run merge on the very next flush.
		for lvl < s.opts.MaxLevels && s.opts.levelTarget(lvl) < newRun.bytes {
			lvl++
		}
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

func newSliceIter(recs []record.Record) *sliceIter { return &sliceIter{recs: recs} }

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
