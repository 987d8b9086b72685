package core

import (
	"fmt"
	"runtime"
	"testing"

	"elsm/internal/vfs"
)

// twoRunStore returns a P2 store holding two runs of n records each — odd
// keys in level 1, even keys in level 2 — so that Compact(1) is one
// authenticated two-run merge of 2n records through the listener, with
// nothing else going on. Levels are sized so that no background compaction
// ever triggers.
func twoRunStore(tb testing.TB, n int) *Store {
	value := make([]byte, 100)
	return twoRunStoreOn(tb, vfs.NewMem(), n, func(int) []byte { return value })
}

// twoRunKey is the i-th key of a twoRunStore.
func twoRunKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// twoRunStoreOn is twoRunStore on a given file system with a value per key.
func twoRunStoreOn(tb testing.TB, fs vfs.FS, n int, value func(i int) []byte) *Store {
	tb.Helper()
	s, err := Open(Config{
		FS:           fs,
		MemtableSize: 64 << 20,
		LevelBase:    1 << 30,
		KeepVersions: 1,
	})
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
// built and a proof embedded in every output record.
func BenchmarkAuthenticatedCompaction(b *testing.B) {
	const n = 10000
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := twoRunStore(b, n)
		runtime.ReadMemStats(&ms0)
		b.StartTimer()
		if err := s.Compact(1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		s.Close()
		b.StartTimer()
	}
	records := float64(b.N) * 2 * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(mallocs)/records, "allocs/record")
}

// TestCompactionAllocationGuard pins the allocation cost of authenticated
// compaction: arenas, cursors and in-place proofs keep it near one
// allocation per SSTable block, and a change that brings back a per-record
// allocation (a cloned key, a proof buffer, a path slice) trips this.
func TestCompactionAllocationGuard(t *testing.T) {
	const n = 4000
	// AllocsPerRun calls the function once to warm up and once to measure;
	// each call needs its own prepared store.
	stores := []*Store{twoRunStore(t, n), twoRunStore(t, n)}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		if err := stores[next].Compact(1); err != nil {
			t.Error(err)
		}
		next++
	})
	perRecord := allocs / (2 * n)
	t.Logf("%.0f allocations for %d output records: %.2f per record", allocs, 2*n, perRecord)
	if perRecord > 2 {
		t.Fatalf("authenticated compaction allocates %.2f times per output record, want ≤ 2", perRecord)
	}
}
