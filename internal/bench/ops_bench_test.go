package bench

import (
	"testing"

	"elsm/internal/core"
	"elsm/internal/lsm"
	"elsm/internal/ycsb"
)

// Per-operation microbenchmarks of the baselines the product is measured
// against (functional cost, no hardware model): the same Gets and Puts the
// root package's BenchmarkGetP2Verified and BenchmarkPutP2Authenticated time
// on eLSM-P2, on the same geometry and a 4 MiB block cache.

// opsConfig is the engine every per-operation benchmark runs on.
func opsConfig() core.Config {
	return core.Config{
		CacheSize: 4 << 20,
		Geometry:  lsm.Geometry{MemtableSize: 256 << 10, TableFileSize: 128 << 10, LevelBase: 512 << 10},
	}
}

// opsStore opens a store with open and closes it when the benchmark ends.
func opsStore[S core.KV](b *testing.B, open func(core.Config) (S, error)) S {
	b.Helper()
	s, err := open(opsConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// loadOps bulk-loads the n records every Get benchmark reads.
func loadOps(b *testing.B, s bulkLoader, n int) {
	b.Helper()
	if err := s.BulkLoad(ycsb.GenRecords(n, ycsb.DefaultValueSize)); err != nil {
		b.Fatal(err)
	}
}

// getUniform times Gets of loaded keys chosen uniformly from n.
func getUniform(b *testing.B, s core.Reader, n int) {
	ch := ycsb.NewKeyChooser(ycsb.Uniform, uint64(n), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Get(s, ycsb.Key(ch.Next()))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("loaded key missing")
		}
	}
}

const opsRecords = 50_000

func benchmarkGet(b *testing.B, open func(core.Config) (*core.RawStore, error)) {
	s := opsStore(b, open)
	loadOps(b, s, opsRecords)
	getUniform(b, s, opsRecords)
}

func BenchmarkGetP1(b *testing.B)        { benchmarkGet(b, core.OpenP1) }
func BenchmarkGetUnsecured(b *testing.B) { benchmarkGet(b, core.OpenUnsecured) }

func benchmarkPut(b *testing.B, open func(core.Config) (*core.RawStore, error)) {
	s := opsStore(b, open)
	val := ycsb.Value(1, ycsb.DefaultValueSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Commit(nil, []core.BatchOp{{Key: ycsb.Key(uint64(i)), Value: val}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutP1(b *testing.B)        { benchmarkPut(b, core.OpenP1) }
func BenchmarkPutUnsecured(b *testing.B) { benchmarkPut(b, core.OpenUnsecured) }

// BenchmarkVerificationOverhead measures the pure software cost of the
// eLSM verification layer: a verified Get of eLSM-P2 against a Get of the
// unsecured store over the same records, on the same engine and cache (no
// hardware cost model in either).
func BenchmarkVerificationOverhead(b *testing.B) {
	p2, raw := opsStore(b, core.Open), opsStore(b, core.OpenUnsecured)
	loadOps(b, p2, opsRecords)
	loadOps(b, raw, opsRecords)
	b.Run("verified", func(b *testing.B) { getUniform(b, p2, opsRecords) })
	b.Run("unsecured", func(b *testing.B) { getUniform(b, raw, opsRecords) })
}
