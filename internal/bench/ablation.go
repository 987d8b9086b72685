package bench

import (
	"fmt"

	"elsm/internal/core"
	"elsm/internal/vfs"
	"elsm/internal/ycsb"
)

// AblationEarlyStop quantifies the paper's first claimed distinction over
// Speicher (§7): eLSM's GET stops at the first verified hit and its proof
// covers only levels L1..Li, whereas prior work iterates and proves every
// level. We run the same read workload against two identical eLSM-P2
// stores — early stop on vs off — over a multi-run tree, under both the
// Latest distribution (temporal locality: hits land in young runs, where
// early stop saves the most — the §5.7 incremental log-monitoring case)
// and Uniform. Reported series: mean µs/op, plus proof bytes per GET.
func AblationEarlyStop(cfg Config) (Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		Name:    "Ablation: early stop",
		Caption: "GET with early stop vs all-levels iteration (Speicher-style), 1 GB",
		XLabel:  "distribution / metric",
		Series:  seriesOrder("early-stop", "all-levels"),
	}
	data := cfg.paperMB(1024)
	for _, dist := range []ycsb.Distribution{ycsb.Latest, ycsb.Zipfian, ycsb.Uniform} {
		latRow := Row{X: dist.String() + " µs/op", Series: map[string]float64{}}
		proofRow := Row{X: dist.String() + " proofB/op", Series: map[string]float64{}}
		for _, disable := range []bool{false, true} {
			name := "early-stop"
			if disable {
				name = "all-levels"
			}
			lat, proofBytes, err := cfg.earlyStopPoint(data, dist, disable)
			if err != nil {
				return t, fmt.Errorf("%s/%s: %w", dist, name, err)
			}
			cfg.logf("    ablation %s %s: %.1f us/op, %.0f proof B/op", dist, name, lat, proofBytes)
			latRow.Series[name] = lat
			proofRow.Series[name] = proofBytes
		}
		t.Rows = append(t.Rows, latRow, proofRow)
	}
	return t, nil
}

// earlyStopPoint builds a deliberately multi-run store (bulk bottom run
// plus organically flushed young runs) and measures verified GETs.
func (c Config) earlyStopPoint(dataBytes int, dist ycsb.Distribution, disableEarlyStop bool) (float64, float64, error) {
	s, err := core.Open(core.Config{
		FS:               vfs.NewMem(),
		MemtableSize:     c.paperMB(4),
		TableFileSize:    c.paperMB(4),
		LevelBase:        int64(c.paperMB(10)),
		MaxLevels:        7,
		KeepVersions:     1,
		CounterInterval:  4096,
		MmapReads:        true,
		DisableEarlyStop: disableEarlyStop,
	})
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()

	// 90% of the data arrives in bulk (the old, deep run)...
	n := ycsb.RecordsForBytes(int64(dataBytes))
	bulk := n * 9 / 10
	if err := s.BulkLoad(ycsb.GenRecords(bulk, ycsb.DefaultValueSize)); err != nil {
		return 0, 0, err
	}
	// ...and the rest through the write path, creating younger runs.
	for i := bulk; i < n; i++ {
		if _, err := core.Put(s, ycsb.Key(uint64(i)), ycsb.Value(uint64(i), ycsb.DefaultValueSize)); err != nil {
			return 0, 0, err
		}
	}
	if err := s.Flush(); err != nil {
		return 0, 0, err
	}
	if len(s.Engine().Runs()) < 2 {
		return 0, 0, fmt.Errorf("ablation store built only %d runs", len(s.Engine().Runs()))
	}

	before := s.VerifyStatsSnapshot()
	wl := ycsb.Workload{Name: "read", ReadProp: 1, Dist: dist}
	r := ycsb.NewRunner(s, wl, n, 0xab1a)
	st, err := r.RunOps(c.Ops)
	if err != nil {
		return 0, 0, err
	}
	after := s.VerifyStatsSnapshot()
	gets := after.Gets - before.Gets
	if gets == 0 {
		gets = 1
	}
	proofPerGet := float64(after.ProofBytes-before.ProofBytes) / float64(gets)
	return float64(st.Mean.Nanoseconds()) / 1e3, proofPerGet, nil
}
