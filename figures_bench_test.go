// Figure benchmarks: one testing.B benchmark per paper table/figure
// (BenchmarkFigNN drives a reduced-scale sweep of the same code paths the
// full harness in cmd/elsm-bench runs). They live in the external test
// package because internal/bench drives the network front end, which is
// built on the public elsm API.
//
// The figure benchmarks run at 1/256 scale — the scale of the committed
// BENCH_figures.json — so `go test -bench=.` finishes in minutes; run
// `go run ./cmd/elsm-bench -exp all` for the paper-scale (1/32) sweeps.
package elsm_test

import (
	"fmt"
	"testing"

	"elsm/internal/bench"
)

// benchCfg is the reduced-scale configuration for figure benchmarks.
func benchCfg() bench.Config {
	return bench.Config{Scale: 256, Ops: 300}
}

// runFigure executes one figure reproduction per benchmark iteration and
// reports its wall time; the series values are logged so `-bench` output
// doubles as a mini results table.
func runFigure(b *testing.B, run func(bench.Config) (bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := run(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + tbl.Format())
		}
	}
}

func BenchmarkFig2BufferPlacement(b *testing.B)      { runFigure(b, bench.Fig2) }
func BenchmarkFig5aReadWriteMix(b *testing.B)        { runFigure(b, bench.Fig5a) }
func BenchmarkFig5bDataSize(b *testing.B)            { runFigure(b, bench.Fig5b) }
func BenchmarkFig5cDistributions(b *testing.B)       { runFigure(b, bench.Fig5c) }
func BenchmarkFig6aReadScaling(b *testing.B)         { runFigure(b, bench.Fig6a) }
func BenchmarkFig6bMmapVsBuffer(b *testing.B)        { runFigure(b, bench.Fig6b) }
func BenchmarkFig6cBufferSize(b *testing.B)          { runFigure(b, bench.Fig6c) }
func BenchmarkFig7aWriteScaling(b *testing.B)        { runFigure(b, bench.Fig7a) }
func BenchmarkFig7bCompactionToggle(b *testing.B)    { runFigure(b, bench.Fig7b) }
func BenchmarkFig8WriteBufferPlacement(b *testing.B) { runFigure(b, bench.Fig8) }

// BenchmarkTable1 exists so every paper table has a bench target; Table 1
// is qualitative, so this just validates its rendering.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.Table1() == "" {
			b.Fatal("empty table")
		}
	}
	if testing.Verbose() {
		fmt.Print(bench.Table1())
	}
}
