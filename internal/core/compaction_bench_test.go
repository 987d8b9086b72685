package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/race"
	"elsm/internal/vfs"
)

// twoRunStore returns a P2 store holding two runs of n records each — odd
// keys in level 1, even keys in level 2 — so that Compact(1) is one
// authenticated two-run merge of 2n records through the listener, with
// nothing else going on. Levels are sized so that no background compaction
// ever triggers. It has no block cache: every block request is a file read.
func twoRunStore(tb testing.TB, n int) *Store {
	value := make([]byte, 100)
	return twoRunStoreOn(tb, Config{FS: vfs.NewMem()}, n, func(int) []byte { return value })
}

// twoRunKey is the i-th key of a twoRunStore.
func twoRunKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// twoRunStoreOn is twoRunStore with a value per key, on cfg's file system,
// block cache and worker pool.
func twoRunStoreOn(tb testing.TB, cfg Config, n int, value func(i int) []byte) *Store {
	tb.Helper()
	cfg.MemtableSize, cfg.LevelBase, cfg.KeepVersions = 64<<20, 1<<30, 1
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	load := func(parity int) {
		ops := make([]BatchOp, 0, 512)
		for i := parity; i < 2*n; i += 2 {
			ops = append(ops, BatchOp{Key: twoRunKey(i), Value: value(i)})
			if len(ops) == cap(ops) || i+2 >= 2*n {
				if _, err := s.Commit(nil, ops); err != nil {
					tb.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		if err := s.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	load(0)
	if err := s.Compact(1); err != nil { // evens: level 1 → level 2
		tb.Fatal(err)
	}
	load(1)
	if got := len(s.Engine().Runs()); got != 2 {
		tb.Fatalf("set-up left %d runs, want 2", got)
	}
	return s
}

// BenchmarkAuthenticatedCompaction times the write path's inner loop
// (§5.5.2, Figure 4): a two-run merge with every input record copied and
// digested, both input trees reconstructed and checked, the output tree
// built and a proof embedded in every output record. It reports what the
// merges allocate per record, counts and bytes, on one worker token (one
// part, one flusher) and on two (two key-range parts, two flushers).
func BenchmarkAuthenticatedCompaction(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchmarkCompaction(b, workers) })
	}
}

func benchmarkCompaction(b *testing.B, workers int) {
	const n = 10000
	value := make([]byte, 100)
	var ms0, ms1 runtime.MemStats
	var mallocs, bytes uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := twoRunStoreOn(b, Config{FS: vfs.NewMem(), Workers: lsm.NewWorkerPool(workers)}, n, func(int) []byte { return value })
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		if err := s.Compact(1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		s.Close()
		b.StartTimer()
	}
	records := float64(b.N) * 2 * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(mallocs)/records, "allocs/record")
	b.ReportMetric(float64(bytes)/records, "B/record")
}

// TestCompactionAllocationGuard pins what authenticated compaction allocates
// once its job scratch is warm: the third of three identical two-run merges,
// with the collector off, so the pools keep what the first two jobs
// returned, and one P, so every goroutine draws on the same per-P pool
// cache. The record arenas and chunks, the hashers' bookkeeping and leaf
// chunks, the Merkle nodes, the job's parts and file lists and the table
// builders all come back from their pools; what is left is a few
// allocations per output file and the bytes of the files themselves — the
// in-memory file system's copy alone is 1.06× the bytes compacted, so the
// bound on bytes leaves a fifth of that for everything else. A change that
// brings back a per-record allocation, or a per-job buffer the size of the
// level, trips it. A job on two worker tokens merges in two key-range parts
// and is held to the same bounds. The race detector drops pool puts at
// random, so the guard skips under it.
func TestCompactionAllocationGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { compactionAllocationGuard(t, workers) })
	}
}

func compactionAllocationGuard(t *testing.T, workers int) {
	const n = 4000
	// Every flusher of a job holds a builder before any takes a file, so
	// the first two jobs leave as many in the pool as the third takes,
	// however the scheduler ran their flushers.
	value := make([]byte, 100)
	stores := make([]*Store, 3)
	for i := range stores {
		stores[i] = twoRunStoreOn(t, Config{FS: vfs.NewMem(), Workers: lsm.NewWorkerPool(workers)}, n, func(int) []byte { return value })
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, s := range stores[:2] {
		if err := s.Compact(1); err != nil {
			t.Fatal(err)
		}
	}
	s := stores[2]
	before := s.Engine().Stats().BytesCompacted
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := s.Compact(1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms1)
	compacted := s.Engine().Stats().BytesCompacted - before
	allocs, bytes := ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	perRecord, perByte := float64(allocs)/(2*n), float64(bytes)/float64(compacted)
	t.Logf("warm job: %d allocations for %d output records (%.3f per record), %d bytes for %d compacted (%.2f×)",
		allocs, 2*n, perRecord, bytes, compacted, perByte)
	if perRecord > 0.08 {
		t.Errorf("authenticated compaction allocates %.3f times per output record, want ≤ 0.08", perRecord)
	}
	if perByte > 1.2 {
		t.Errorf("authenticated compaction allocates %.2f× the bytes it compacts, want ≤ 1.2", perByte)
	}
}
