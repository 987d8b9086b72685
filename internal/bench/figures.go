package bench

import (
	"fmt"

	"elsm/internal/ycsb"
)

// Table1 returns the design-choice matrix (Table 1 of the paper).
func Table1() string {
	return `== Table 1 — Design choices of eLSM-P1 and eLSM-P2 ==
               Code placement   Data placement    Digest structure
eLSM-P1 (§4.1) Inside enclave   Inside enclave    File granularity
eLSM-P2 (§5)   Inside enclave   Outside enclave   Record granularity
`
}

// fig2BufferMB is Figure 2's X axis: the read buffer size, paper scale.
var fig2BufferMB = []int{4, 16, 64, 128, 256, 512, 1024, 2048}

// fig6aDataMB is Figure 6a's X axis: the data size, paper scale.
var fig6aDataMB = []int{8, 64, 128, 256, 512, 1024, 2048, 3072}

// Fig2 reproduces Figure 2: read latency with the read buffer placed
// inside vs outside the enclave, on a 5 GB dataset, sweeping buffer size.
// Expected shape: ~2x gap for small buffers (the extra in-enclave copy),
// blowing up past the 128 MB EPC (enclave paging) to ~4.5x.
func Fig2(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 2",
		Caption: "read buffer inside vs outside enclave (5 GB data)",
		XLabel:  "buffer size (paper)",
		Series:  []string{string(UnsecuredBuffer), string(P1)},
	}
	data := cfg.paperMB(5 * 1024)
	wl := ycsb.Mix(100, ycsb.Uniform)
	for _, bufMB := range fig2BufferMB {
		row := Row{X: mbLabel(bufMB), Series: map[string]float64{}}
		cfg.logf("Fig2 buffer=%s", row.X)
		outP := storeParams{variant: UnsecuredBuffer, dataBytes: data, cacheBytes: cfg.paperMB(bufMB)}
		if err := cfg.addPoint(&row, outP, wl, string(UnsecuredBuffer)); err != nil {
			return t, err
		}
		inP := storeParams{variant: P1, dataBytes: data, cacheBytes: cfg.paperMB(bufMB)}
		if err := cfg.addPoint(&row, inP, wl, string(P1)); err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5a reproduces Figure 5a: operation latency vs read percentage
// (0–100%), 3 GB data, uniform keys. Expected: P2 falls as reads grow and
// beats P1 everywhere except write-only; unsecured LevelDB lower-bounds
// both (P2 within 1.5–4x).
func Fig5a(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 5a",
		Caption: "latency vs read-write ratio (3 GB, uniform)",
		XLabel:  "read %",
		Series:  []string{string(P2Mmap), string(P1), "LevelDB (unsecure)"},
	}
	data := cfg.paperMB(3 * 1024)
	for pct := 0; pct <= 100; pct += 20 {
		row := Row{X: fmt.Sprintf("%d", pct), Series: map[string]float64{}}
		cfg.logf("Fig5a read%%=%d", pct)
		wl := ycsb.Mix(pct, ycsb.Uniform)
		if err := cfg.addPoint(&row, storeParams{variant: P2Mmap, dataBytes: data}, wl, string(P2Mmap)); err != nil {
			return t, err
		}
		if err := cfg.addPoint(&row, storeParams{variant: P1, dataBytes: data}, wl, string(P1)); err != nil {
			return t, err
		}
		if err := cfg.addPoint(&row, storeParams{variant: UnsecuredMmap, dataBytes: data}, wl, "LevelDB (unsecure)"); err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5b reproduces Figure 5b: workload A (50/50, zipfian) latency vs data
// size, P2 vs P1 vs Eleos. Expected: gap between P2 and P1 grows with data
// (up to ~7x at 3 GB); Eleos stops at 1 GB.
func Fig5b(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 5b",
		Caption: "workload A latency vs data size",
		XLabel:  "data size (paper)",
		Series:  []string{string(P2Mmap), string(P1), string(Eleos)},
	}
	wl := ycsb.WorkloadA()
	for _, gbTenths := range []int{6, 8, 10, 20, 30} {
		dataMB := gbTenths * 1024 / 10
		data := cfg.paperMB(dataMB)
		row := Row{X: gbLabelTenths(gbTenths), Series: map[string]float64{}}
		cfg.logf("Fig5b data=%s", row.X)
		for _, v := range []Variant{P2Mmap, P1, Eleos} {
			if err := cfg.addPoint(&row, storeParams{variant: v, dataBytes: data}, wl, string(v)); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5c reproduces Figure 5c: latency under Uniform/Zipfian/Latest key
// distributions at 3 GB. Expected: P2 is far less sensitive to the
// distribution than P1; uniform (largest working set) is P1's worst case.
func Fig5c(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 5c",
		Caption: "latency vs key distribution (3 GB, 50/50 mix)",
		XLabel:  "distribution",
		Series:  []string{string(P2Mmap), string(P1)},
	}
	data := cfg.paperMB(3 * 1024)
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian, ycsb.Latest} {
		row := Row{X: dist.String(), Series: map[string]float64{}}
		cfg.logf("Fig5c dist=%s", dist)
		wl := ycsb.Workload{Name: "mix50", ReadProp: 0.5, UpdateProp: 0.5, Dist: dist}
		for _, v := range []Variant{P2Mmap, P1} {
			if err := cfg.addPoint(&row, storeParams{variant: v, dataBytes: data}, wl, string(v)); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6a reproduces Figure 6a: read-only latency vs data size for P2-mmap,
// P1, Eleos and the unsecured buffer-outside baseline. Expected: below the
// EPC P1/Eleos win (no proof overhead); beyond it P2 wins and stays flat;
// Eleos stops at 1 GB.
func Fig6a(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 6a",
		Caption: "read latency vs data size",
		XLabel:  "data size (paper)",
		Series:  []string{string(P2Mmap), string(P1), string(Eleos), string(UnsecuredBuffer)},
	}
	wl := ycsb.Mix(100, ycsb.Uniform)
	for _, dataMB := range fig6aDataMB {
		data := cfg.paperMB(dataMB)
		row := Row{X: mbLabel(dataMB), Series: map[string]float64{}}
		cfg.logf("Fig6a data=%s", row.X)
		for _, v := range []Variant{P2Mmap, P1, Eleos, UnsecuredBuffer} {
			if err := cfg.addPoint(&row, storeParams{variant: v, dataBytes: data}, wl, string(v)); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6b reproduces Figure 6b: eLSM-P2 mmap vs buffered read path vs data
// size. Expected: mmap's advantage grows with data, ~5x at 3 GB.
func Fig6b(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 6b",
		Caption: "eLSM-P2 read path: mmap vs buffer",
		XLabel:  "data size (paper)",
		Series:  []string{string(P2Mmap), string(P2Buffer)},
	}
	wl := ycsb.Mix(100, ycsb.Uniform)
	for _, dataMB := range []int{8, 64, 128, 256, 512, 1024, 2048, 3072} {
		data := cfg.paperMB(dataMB)
		row := Row{X: mbLabel(dataMB), Series: map[string]float64{}}
		cfg.logf("Fig6b data=%s", row.X)
		for _, v := range []Variant{P2Mmap, P2Buffer} {
			if err := cfg.addPoint(&row, storeParams{variant: v, dataBytes: data}, wl, string(v)); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig6c reproduces Figure 6c: read latency vs buffer size at fixed 2 GB
// data, P2-buffer vs P1. Expected: P2 flat; P1 rises sharply past the
// 128 MB EPC; P2 1.6–2.3x faster overall.
func Fig6c(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Figure 6c",
		Caption: "read latency vs buffer size (2 GB data)",
		XLabel:  "buffer size (paper)",
		Series:  []string{string(P2Buffer), string(P1)},
	}
	data := cfg.paperMB(2 * 1024)
	wl := ycsb.Mix(100, ycsb.Uniform)
	for _, bufMB := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		row := Row{X: mbLabel(bufMB), Series: map[string]float64{}}
		cfg.logf("Fig6c buffer=%s", row.X)
		for _, v := range []Variant{P2Buffer, P1} {
			p := storeParams{variant: v, dataBytes: data, cacheBytes: cfg.paperMB(bufMB)}
			if err := cfg.addPoint(&row, p, wl, string(v)); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7a reproduces Figure 7a: write latency (compaction amortized) vs data
// size. Expected: P1 fastest (hardware-only protection), P2 at 1.3–2.3x of
// P1 (proof embedding), Eleos slowest and capped at 1 GB.
func Fig7a(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	// Write-only sweeps need enough operations to roll through several
	// memtable flushes and their compaction cascades, or the amortized
	// compaction cost never shows.
	cfg.Ops *= 4
	t := Table{
		Name:    "Figure 7a",
		Caption: "write latency with compaction vs data size",
		XLabel:  "data size (paper)",
		Series:  []string{string(P2Mmap), string(P1), string(Eleos)},
	}
	wl := ycsb.Mix(0, ycsb.Uniform)
	for _, dataMB := range []int{205, 1024, 2048, 3072, 4096} {
		data := cfg.paperMB(dataMB)
		row := Row{X: mbLabel(dataMB), Series: map[string]float64{}}
		cfg.logf("Fig7a data=%s", row.X)
		for _, v := range []Variant{P2Mmap, P1, Eleos} {
			if err := cfg.addPoint(&row, storeParams{variant: v, dataBytes: data}, wl, string(v)); err != nil {
				return t, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7b reproduces Figure 7b: write latency with vs without compaction for
// P2 and P1. Expected: compaction costs 2–4x on the write path; P2 above
// P1 in both configurations.
func Fig7b(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	// Write-only sweeps need enough operations to roll through several
	// memtable flushes and their compaction cascades, or the amortized
	// compaction cost never shows.
	cfg.Ops *= 4
	t := Table{
		Name:    "Figure 7b",
		Caption: "writes with/without compaction",
		XLabel:  "data size (paper)",
		Series: []string{
			string(P2Mmap) + " (w. comp)",
			string(P1) + " (w. comp)",
			string(P2Mmap) + " (wo. comp)",
			string(P1) + " (wo. comp)",
		},
	}
	wl := ycsb.Mix(0, ycsb.Uniform)
	for _, dataMB := range []int{205, 1024, 2048, 4096} {
		data := cfg.paperMB(dataMB)
		row := Row{X: mbLabel(dataMB), Series: map[string]float64{}}
		cfg.logf("Fig7b data=%s", row.X)
		for _, v := range []Variant{P2Mmap, P1} {
			for _, disable := range []bool{false, true} {
				name := string(v) + " (w. comp)"
				if disable {
					name = string(v) + " (wo. comp)"
				}
				p := storeParams{variant: v, dataBytes: data, disableComp: disable}
				if err := cfg.addPoint(&row, p, wl, name); err != nil {
					return t, err
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig8 reproduces Appendix C Figure 8: write latency vs write-buffer
// (memtable) size, P1 vs the unsecured store. Expected: flat in buffer
// size for both; in-enclave placement of a SMALL write buffer costs little
// (the motivation for keeping the write buffer inside, §4.2).
func Fig8(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	// Write-only sweeps need enough operations to roll through several
	// memtable flushes and their compaction cascades, or the amortized
	// compaction cost never shows.
	cfg.Ops *= 4
	t := Table{
		Name:    "Figure 8",
		Caption: "write-buffer placement (disk writes)",
		XLabel:  "write buffer (paper)",
		Series:  []string{string(P1), "LSM outside (unsecured)"},
	}
	data := cfg.paperMB(512)
	wl := ycsb.Mix(0, ycsb.Uniform)
	for _, bufMB := range []int{4, 8, 16, 32, 64, 128, 256, 512} {
		row := Row{X: mbLabel(bufMB), Series: map[string]float64{}}
		cfg.logf("Fig8 buffer=%s", row.X)
		p1 := storeParams{variant: P1, dataBytes: data, memtable: cfg.paperMB(bufMB)}
		if err := cfg.addPoint(&row, p1, wl, string(P1)); err != nil {
			return t, err
		}
		un := storeParams{variant: UnsecuredMmap, dataBytes: data, memtable: cfg.paperMB(bufMB)}
		if err := cfg.addPoint(&row, un, wl, "LSM outside (unsecured)"); err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Experiment pairs a name with its runner.
type Experiment struct {
	Name string
	Run  func(Config) (Table, error)
}

// All lists every figure reproduction in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig2", Fig2},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig5c", Fig5c},
		{"fig6a", Fig6a},
		{"fig6b", Fig6b},
		{"fig6c", Fig6c},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"fig8", Fig8},
	}
}
