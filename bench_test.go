// Per-operation microbenchmarks of the product, eLSM-P2, on its block
// cache (functional cost, zero hardware model unless stated): these isolate
// the software overhead of verification itself — proof decode, Merkle path
// recompute, chain checks — on top of the raw engine. The same operations
// on the baselines, and verification against the unsecured store, are
// internal/bench's; the paper-figure benchmarks live in
// figures_bench_test.go.
package elsm

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"elsm/internal/core"
	"elsm/internal/costmodel"
	"elsm/internal/lsm"
	"elsm/internal/vfs"
	"elsm/internal/ycsb"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	opts := Options{CacheSize: 4 << 20}
	opts.geometry = lsm.Geometry{MemtableSize: 256 << 10, TableFileSize: 128 << 10, LevelBase: 512 << 10}
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func loadStore(b *testing.B, s *Store, n int) {
	b.Helper()
	bulkLoad(b, s, ycsb.GenRecords(n, ycsb.DefaultValueSize))
}

func BenchmarkGetP2Verified(b *testing.B) {
	s := benchStore(b)
	const n = 50_000
	loadStore(b, s, n)
	ch := ycsb.NewKeyChooser(ycsb.Uniform, n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Get(ycsb.Key(ch.Next()))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("loaded key missing")
		}
	}
}

func BenchmarkPutP2Authenticated(b *testing.B) {
	s := benchStore(b)
	val := ycsb.Value(1, ycsb.DefaultValueSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put(ycsb.Key(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// simCostStore opens an eLSM-P2 core store in a simulated enclave (a
// paper-simulation setting, so it goes in through core.Config.Enclave, not
// elsm.Options): what the batched-write benchmarks expose is the
// enclave-boundary amortization — crossings counted, then priced — and not
// just Go-level locking.
func simCostStore(tb testing.TB) (*core.Store, *costmodel.Sim) {
	tb.Helper()
	sim := costmodel.New(costmodel.DefaultEPCSize)
	s, err := core.Open(core.Config{
		Enclave:  sim.Enclave(),
		Geometry: lsm.Geometry{MemtableSize: 1 << 20, TableFileSize: 256 << 10, LevelBase: 1 << 20},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s, sim
}

// put100 writes records [base, base+100) through one-op commits, or through
// one 100-op commit.
func put100(tb testing.TB, s *core.Store, base uint64, batched bool) {
	val := ycsb.Value(1, ycsb.DefaultValueSize)
	ops := make([]core.BatchOp, 100)
	for j := range ops {
		ops[j] = core.BatchOp{Key: ycsb.Key(base + uint64(j)), Value: val}
	}
	if !batched {
		for j := range ops {
			if _, err := s.Commit(nil, ops[j:j+1]); err != nil {
				tb.Fatal(err)
			}
		}
	} else if _, err := s.Commit(nil, ops); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPut100Single vs BenchmarkPut100Batch: the same 100 records per
// iteration through one-op commits (100 ECalls + 100 WAL OCalls) and
// through one 100-op commit (one ECall, one grouped WAL append+fsync, at
// most one counter bump). ns/op is what the box measured; sim-ns/op is what
// costmodel.Calibrated prices the counted boundary traffic at, and the
// cost on SGX hardware is their sum.
func BenchmarkPut100SingleP2(b *testing.B) { benchmarkPut100(b, false) }
func BenchmarkPut100BatchP2(b *testing.B)  { benchmarkPut100(b, true) }

func benchmarkPut100(b *testing.B, batched bool) {
	s, sim := simCostStore(b)
	before := sim.Counts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put100(b, s, uint64(i*100), batched)
	}
	b.StopTimer()
	priced := costmodel.Calibrated().Price(sim.Counts().Sub(before))
	b.ReportMetric(float64(priced.Nanoseconds())/float64(b.N), "sim-ns/op")
}

// TestBatchedPutCrossesOnce is the amortization those two benchmarks price,
// as counts: 100 single Puts enter the enclave 100 times, one 100-op batch
// once.
func TestBatchedPutCrossesOnce(t *testing.T) {
	for _, c := range []struct {
		batched bool
		ecalls  uint64
	}{{false, 100}, {true, 1}} {
		s, sim := simCostStore(t)
		before := sim.Counts()
		put100(t, s, 0, c.batched)
		if got := sim.Counts().Sub(before).ECalls; got != c.ecalls {
			t.Errorf("batched=%v: 100 records entered the enclave %d times, want %d", c.batched, got, c.ecalls)
		}
	}
}

func BenchmarkScanP2Verified(b *testing.B) {
	s := benchStore(b)
	const n = 20_000
	loadStore(b, s, n)
	keys := make([][]byte, n) // built here, so -benchmem counts only the Scan
	for i := range keys {
		keys[i] = ycsb.Key(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := i % (n - 60)
		out, err := s.Scan(keys[start], keys[start+50])
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkIterStream10kP2 streams a 10k-record verified range through the
// iterator — bounded memory, chunked verification — against the
// materialized Scan of the same range below it.
func BenchmarkIterStream10kP2(b *testing.B) {
	s := benchStore(b)
	const n = 10_000
	loadStore(b, s, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := s.Iter(ycsb.Key(0), ycsb.Key(n))
		count := 0
		for it.Next() {
			count++
		}
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("streamed %d of %d records", count, n)
		}
	}
}

func BenchmarkScanMaterialized10kP2(b *testing.B) {
	s := benchStore(b)
	const n = 10_000
	loadStore(b, s, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.Scan(ycsb.Key(0), ycsb.Key(n))
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != n {
			b.Fatalf("scanned %d of %d records", len(out), n)
		}
	}
}

// TestObsOverheadGuard is the instrumentation-cost budget: steady-state
// single-writer put throughput with the default instrumentation on versus
// Options.DisableInstrumentation (nil recorders — the hot paths never
// even read the clock), measured in interleaved rounds on the same
// process. The budget is < 3% median regression on storage whose fsync
// costs real time (vfs.NewSlowSync — the regime the budget is a claim
// about: the histograms are meant to be left on in production, where the
// commit pipeline is fsync-bound and a handful of clock reads per group
// is noise; on a raw in-memory device the same clock reads are a
// double-digit fraction of a ~2µs put and no instrumentation could meet
// the bar). Timing on shared CI is noisy, so the comparison retries a few
// times and fails only if every attempt exceeds the budget.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	const (
		rounds        = 9
		opsPerRound   = 300
		syncDelay     = 100 * time.Microsecond
		maxRegression = 0.03
		attempts      = 4
	)
	openStore := func(disable bool) *Store {
		t.Helper()
		s, err := Open(Options{
			Mode:                   ModeP2,
			FS:                     vfs.NewSlowSync(vfs.NewMem(), syncDelay),
			DisableInstrumentation: disable,
			geometry:               lsm.Geometry{MemtableSize: 64 << 20}, // keep flushes off the measured path
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	val := ycsb.Value(1, ycsb.DefaultValueSize)
	round := func(s *Store, tag string, r int) float64 {
		t.Helper()
		start := time.Now()
		for i := 0; i < opsPerRound; i++ {
			if _, err := s.Put([]byte(fmt.Sprintf("%s-%02d-%06d", tag, r, i)), val); err != nil {
				t.Fatal(err)
			}
		}
		return float64(opsPerRound) / time.Since(start).Seconds()
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	attempt := func() float64 {
		t.Helper()
		instr, plain := openStore(false), openStore(true)
		defer instr.Close()
		defer plain.Close()
		round(instr, "warm", -1) // burn one-off costs outside the measurement
		round(plain, "warm", -1)
		// Each round measures both stores back to back and keeps the
		// ratio: the pair runs adjacent in time, so machine-load drift
		// hits both sides and cancels in the ratio, and the median over
		// rounds discards the outlier pairs a GC or scheduler burst skews.
		// Order alternates so neither store systematically goes first.
		var ratios []float64
		for r := 0; r < rounds; r++ {
			var it, pt float64
			if r%2 == 0 {
				it = round(instr, "i", r)
				pt = round(plain, "p", r)
			} else {
				pt = round(plain, "p", r)
				it = round(instr, "i", r)
			}
			ratios = append(ratios, it/pt)
		}
		return 1 - median(ratios)
	}
	var worst float64
	for i := 0; i < attempts; i++ {
		reg := attempt()
		t.Logf("attempt %d: median put throughput regression %.2f%%", i+1, reg*100)
		if reg < maxRegression {
			return
		}
		if reg > worst {
			worst = reg
		}
	}
	t.Fatalf("instrumentation costs %.2f%% median put throughput across %d attempts (budget %.0f%%)",
		worst*100, attempts, maxRegression*100)
}
