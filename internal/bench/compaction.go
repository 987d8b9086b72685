package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"elsm/internal/core"
	"elsm/internal/obs"
	"elsm/internal/vfs"
	"elsm/internal/ycsb"
)

// compactionSyncDelay models storage whose fsync costs real time. Every
// SSTable write, manifest swap and WAL sync pays it, so a level rewrite
// holds its worker for many fsyncs in a row.
const compactionSyncDelay = 200 * time.Microsecond

// compactionSyncDepth is the simulated device's queue depth: up to this
// many syncs overlap their latency, as on an NVMe device with internal
// parallelism. Depth 1 would serialize every sync through one spindle and
// make maintenance IO-serial no matter how many workers the pool has —
// the regime this ablation measures is a device with headroom the serial
// scheduler cannot use.
const compactionSyncDepth = 8

// compactionWriters is the concurrency of the put workload.
const compactionWriters = 8

// compactionResult is one scheduler configuration's measurements.
type compactionResult struct {
	p50, p99, mean float64 // put latency µs, under sustained ingest
	opsPerSec      float64
	scansPerSec    float64 // concurrent verified range reads
	steadyMedian   float64 // single writer, light load
	flushStallMs   float64
	compactStallMs float64
	bgCompactions  float64
}

// compactionMode is one column of the ablation: the background scheduler
// with a given worker-pool size. 1-worker is the baseline.
type compactionMode struct {
	label   string
	workers int
}

var compactionModes = []compactionMode{
	{label: "1-worker", workers: 1},
	{label: "2-workers", workers: 2},
	{label: "4-workers", workers: 4},
}

// openCompactionStore builds the eLSM-P2 store under test: small write
// buffer and level targets so flushes and level merges happen within the
// measured window, on sync-delayed storage with NVMe-like queue depth.
func (c Config) openCompactionStore(m compactionMode) (*core.Store, error) {
	fs := vfs.NewSlowSyncQD(vfs.NewMem(), compactionSyncDelay, compactionSyncDepth)
	return core.Open(core.Config{
		FS:                fs,
		MemtableSize:      c.paperMB(1),
		TableFileSize:     c.paperMB(1),
		LevelBase:         int64(c.paperMB(2)),
		MaxLevels:         7,
		KeepVersions:      1,
		CounterInterval:   256,
		MmapReads:         true,
		CompactionWorkers: m.workers,
	})
}

// compactionPoint measures one scheduler configuration under the sustained
// bulk-ingest + concurrent-scan workload while a deep compaction runs:
// parallel writers keep the flush cascade busy, a scanner keeps verified
// range reads in flight, and a multi-megabyte deep-level rewrite — whose
// level claims are disjoint from every flush — is walked down in the
// background. With one worker the rewrite holds the pool's only token and
// every flush (and every writer behind a full memtable) stalls for its
// duration; with more workers the flush dispatches alongside it and the
// stall vanishes.
func (c Config) compactionPoint(m compactionMode) (compactionResult, error) {
	var res compactionResult

	s, err := c.openCompactionStore(m)
	if err != nil {
		return res, err
	}
	defer s.Close()

	// Preload a deep level so the workload has a genuinely deep rewrite to
	// run against: size-based placement lands this in L3, far below the
	// levels the ingest cascade touches.
	preload := ycsb.GenRecords(ycsb.RecordsForBytes(int64(c.paperMB(256))), ycsb.DefaultValueSize)
	if err := s.BulkLoad(preload); err != nil {
		return res, err
	}

	perWriter := c.Ops / compactionWriters
	val := make([]byte, 512)

	// The deep compaction the puts are measured against: walk the preload
	// down one level at a time. Each rewrite claims {Ln, Ln+1} for n ≥ 3 —
	// disjoint from a flush's {memtable, L1} — so the only thing standing
	// between a frozen memtable and its flush is a worker token. With one
	// worker the deep rewrite holds it for the whole multi-megabyte merge
	// and every flush (and every writer behind a full memtable) queues;
	// with more workers the flush dispatches immediately.
	stop := make(chan struct{})
	var deepWG sync.WaitGroup
	deepWG.Add(1)
	go func() {
		defer deepWG.Done()
		for lvl := 3; lvl <= 5; lvl++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are tolerated (an empty level is a no-op); the walk
			// exists to keep a deep rewrite in flight, not to converge.
			_ = s.Compact(lvl)
		}
	}()

	// Concurrent scans race the ingest for the duration of the workload.
	var scans atomic.Int64
	var scanWG sync.WaitGroup
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are tolerated (the store may be closing); the loop
			// exists to keep reads in flight, not to converge.
			if _, err := core.Scan(s, []byte("cw00-"), []byte("cw00-~")); err != nil {
				return
			}
			scans.Add(1)
		}
	}()

	// Per-op latencies go straight into one shared log-bucket histogram
	// (internal/obs — lock-free, so the writers need no per-writer slices
	// or a merge step) and quantiles come from the same estimator the
	// server's /metrics endpoint uses.
	var lat obs.Histogram
	errCh := make(chan error, compactionWriters)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < compactionWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("cw%02d-%08d", w, i))
				t0 := time.Now()
				if _, perr := core.Put(s, key, val); perr != nil {
					errCh <- perr
					return
				}
				lat.ObserveSince(t0)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	deepWG.Wait()
	scanWG.Wait()
	close(errCh)
	if werr := <-errCh; werr != nil {
		return res, werr
	}

	snap := lat.Snapshot()
	res.p50 = float64(snap.Quantile(0.50)) / 1e3
	res.p99 = float64(snap.Quantile(0.99)) / 1e3
	res.mean = snap.Mean() / 1e3
	res.opsPerSec = float64(snap.Count) / elapsed.Seconds()
	res.scansPerSec = float64(scans.Load()) / elapsed.Seconds()

	st := s.Engine().Stats()
	res.flushStallMs = float64(st.FlushStallNanos) / 1e6
	res.compactStallMs = float64(st.CompactionStallNanos) / 1e6
	res.bgCompactions = float64(st.BackgroundCompactions)
	if st.Compactions == 0 {
		return res, fmt.Errorf("bench: no compaction ran during the %s workload", m.label)
	}

	// Steady state: a lone writer on a fresh store with no ingest pressure —
	// the per-op latency that must NOT regress as the worker pool grows.
	// The median keeps the measurement insensitive to the occasional
	// maintenance burst the steady ingest itself triggers.
	s2, err := c.openCompactionStore(m)
	if err != nil {
		return res, err
	}
	defer s2.Close()
	n := c.Ops
	if n > 1200 {
		n = 1200
	}
	var steady obs.Histogram
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := core.Put(s2, []byte(fmt.Sprintf("st-%08d", i)), val); err != nil {
			return res, err
		}
		steady.ObserveSince(t0)
	}
	ssnap := steady.Snapshot()
	res.steadyMedian = float64(ssnap.Quantile(0.5)) / 1e3
	return res, nil
}

// AblationCompaction quantifies the maintenance scheduler: sustained bulk
// ingest with concurrent scans while a deep compaction runs, measured on
// the debt-aware background pool at 1, 2 and 4 workers. Expected shape:
// with one worker the deep rewrite monopolizes the pool and flush stalls
// surface as multi-millisecond put tails; growing the pool lets the flush
// run beside the rewrite, collapsing both the stall time and the tail —
// with single-writer steady-state throughput unchanged across all columns.
func AblationCompaction(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	labels := make([]string, len(compactionModes))
	for i, m := range compactionModes {
		labels[i] = m.label
	}
	t := Table{
		Name: "Ablation: compaction",
		Caption: fmt.Sprintf("%d writers sustained ingest + concurrent scans during a deep compaction, %v fsync at queue depth %d; background pool of 1/2/4 workers",
			compactionWriters, compactionSyncDelay, compactionSyncDepth),
		XLabel: "metric",
		Series: seriesOrder(labels...),
	}
	rows := []struct {
		label string
		get   func(compactionResult) float64
	}{
		{"put p50 µs (ingesting)", func(r compactionResult) float64 { return r.p50 }},
		{"put p99 µs (ingesting)", func(r compactionResult) float64 { return r.p99 }},
		{"put mean µs (ingesting)", func(r compactionResult) float64 { return r.mean }},
		{"ingest kops/sec", func(r compactionResult) float64 { return r.opsPerSec / 1e3 }},
		{"scans/sec (concurrent)", func(r compactionResult) float64 { return r.scansPerSec }},
		{"steady µs/op (1 writer)", func(r compactionResult) float64 { return r.steadyMedian }},
		{"flush stall ms", func(r compactionResult) float64 { return r.flushStallMs }},
		{"compaction stall ms", func(r compactionResult) float64 { return r.compactStallMs }},
		{"background compactions", func(r compactionResult) float64 { return r.bgCompactions }},
	}
	results := map[string]compactionResult{}
	for _, m := range compactionModes {
		cfg.logf("AblationCompaction mode=%s", m.label)
		r, err := cfg.compactionPoint(m)
		if err != nil {
			return t, fmt.Errorf("compaction ablation (%s): %w", m.label, err)
		}
		cfg.logf("    %s: p50 %.1fµs p99 %.1fµs mean %.1fµs, %.1f kops/s ingest, %.1f scans/s, steady %.1fµs, stalls %.1f/%.1f ms",
			m.label, r.p50, r.p99, r.mean, r.opsPerSec/1e3, r.scansPerSec, r.steadyMedian, r.flushStallMs, r.compactStallMs)
		results[m.label] = r
	}
	for _, row := range rows {
		r := Row{X: row.label, Series: map[string]float64{}}
		for _, mode := range t.Series {
			r.Series[mode] = row.get(results[mode])
		}
		t.Rows = append(t.Rows, r)
	}
	return t, nil
}
