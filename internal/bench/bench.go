// Package bench reproduces every table and figure of the paper's
// evaluation (§4.2 Figure 2, §6 Figures 5–7, Appendix C Figure 8,
// Table 1). Each FigN function builds the stores under test at a
// configurable scale, drives the figure's workload, and returns a Table of
// series — the same rows the paper plots.
//
// Sizes are the paper's divided by Config.Scale (default 32), with the
// simulated EPC scaled identically so every dataset:EPC ratio — and hence
// every crossover — is preserved.
//
// A figure point is two numbers added together (Point): the mean wall time
// of an operation on this box, where the enclave only counts, and the
// simulated time internal/costmodel prices those counts at — world switches,
// boundary copies, EPC faults. The second is exact for a seeded read-only
// run on any box, which is what the figures' shapes are asserted on. Write
// points also price the flushes and compactions that happen to run during
// the measured window, so their simulated share varies a little between
// runs.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"elsm/internal/core"
	"elsm/internal/costmodel"
	"elsm/internal/eleos"
	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
	"elsm/internal/ycsb"
)

// Config scales and sizes an experiment run.
type Config struct {
	// Scale divides the paper's byte sizes (default 32).
	Scale int
	// Ops is the number of measured operations per data point
	// (default 1200).
	Ops int
	// Verbose prints progress to stdout.
	Verbose bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 32
	}
	if c.Ops <= 0 {
		c.Ops = 1200
	}
	return c
}

// paperMB converts a paper-scale megabyte figure to scaled bytes.
func (c Config) paperMB(mb int) int {
	b := int64(mb) << 20 / int64(c.Scale)
	if b < 64<<10 {
		b = 64 << 10 // floor: below this the LSM geometry degenerates
	}
	return int(b)
}

// epcBytes is the scaled 128 MB EPC.
func (c Config) epcBytes() int { return c.paperMB(128) }

func (c Config) logf(format string, args ...interface{}) {
	if c.Verbose {
		fmt.Printf(format+"\n", args...)
	}
}

// Row is one X point of a figure.
type Row struct {
	X string `json:"x"`
	// Series maps series name to mean µs/op (NaN-free; missing points —
	// e.g. Eleos beyond its capacity — are absent).
	Series map[string]float64 `json:"series"`
	// Points splits each figure value into its measured and simulated
	// components.
	Points map[string]Point `json:"points,omitempty"`
}

// Point is one figure value taken apart: MeasuredUs + SimulatedUs is the
// value in Row.Series, and the embedded counts (per measured window, not per
// op) are what SimulatedUs was priced from.
type Point struct {
	MeasuredUs  float64 `json:"measured_us"`
	SimulatedUs float64 `json:"simulated_us"`
	costmodel.Counts
}

// Table is a reproduced figure.
type Table struct {
	Name    string   `json:"name"`
	Caption string   `json:"caption"`
	XLabel  string   `json:"xlabel"`
	Series  []string `json:"seriesOrder"`
	Rows    []Row    `json:"rows"`
}

// Figures is the paper's figures from one run, with what they were run at
// and priced by (the Eleos series at Prices with Monitor = EleosMonitor): the
// committed BENCH_figures.json.
type Figures struct {
	Scale        int             `json:"scale"`
	Ops          int             `json:"ops"`
	Prices       costmodel.Model `json:"prices_ns"`
	EleosMonitor time.Duration   `json:"eleos_monitor_ns"`
	Tables       []Table         `json:"tables"`
}

// WriteFigures persists the figure tables of one run as BENCH_figures.json
// in dir. Returns the written path.
func (c Config) WriteFigures(dir string, tables []Table) (string, error) {
	c = c.withDefaults()
	data, err := json.MarshalIndent(Figures{Scale: c.Scale, Ops: c.Ops, Prices: costmodel.Calibrated(), EleosMonitor: eleosMonitor, Tables: tables}, "", "  ")
	if err != nil {
		return "", fmt.Errorf("bench: marshal figures: %w", err)
	}
	path := filepath.Join(dir, "BENCH_figures.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("bench: write %s: %w", path, err)
	}
	return path, nil
}

// Format renders the table as the paper-style text block: each value, a mean
// µs/op, is followed in brackets by its simulated share.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s (mean µs/op) ==\n", t.Name, t.Caption)
	fmt.Fprintf(&b, "%-22s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%22s", s)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s", r.X)
		for _, s := range t.Series {
			if p, ok := r.Points[s]; ok {
				fmt.Fprintf(&b, "%12.1f (%7.1f)", r.Series[s], p.SimulatedUs)
			} else {
				fmt.Fprintf(&b, "%22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Variant names the store configurations under test.
type Variant string

const (
	// P2Mmap is eLSM-P2 with the mmap read path.
	P2Mmap Variant = "eLSM-P2-mmap"
	// P2Buffer is eLSM-P2 with an out-of-enclave read buffer.
	P2Buffer Variant = "eLSM-P2-buffer"
	// P1 is the in-enclave strawman.
	P1 Variant = "eLSM-P1"
	// UnsecuredMmap is the plain LSM store, mmap reads.
	UnsecuredMmap Variant = "unsecured"
	// UnsecuredBuffer is the plain LSM store with an (untrusted) buffer.
	UnsecuredBuffer Variant = "buffer-outside"
	// Eleos is the in-enclave update-in-place baseline.
	Eleos Variant = "Eleos"
)

// bulkLoader is implemented by every store that supports the load phase.
type bulkLoader interface {
	BulkLoad([]record.Record) error
}

// warmable exposes the underlying engine for cache warming.
type warmable interface {
	Engine() *lsm.Store
}

// storeParams configures one store under test.
type storeParams struct {
	variant     Variant
	dataBytes   int
	cacheBytes  int // read buffer size (0: variant default)
	memtable    int // write buffer size (0: scaled default)
	disableComp bool
}

// eleosMonitor is SUVM's monitoring overhead per memory reference: what
// Eleos pays for paging its enclave in software (costmodel.Model.Monitor).
const eleosMonitor = 300 * time.Nanosecond

// prices is the price list a variant's counts are priced at.
func (p storeParams) prices() costmodel.Model {
	m := costmodel.Calibrated()
	if p.variant == Eleos {
		m.Monitor = eleosMonitor
	}
	return m
}

// buildStore opens a store of the given variant at the experiment scale in
// the given enclave. The unsecured variants ignore it, so for them it counts
// nothing.
func (c Config) buildStore(p storeParams, enclave *sgx.Enclave) (core.KV, error) {
	memtable := p.memtable
	if memtable == 0 {
		memtable = c.paperMB(4)
	}
	base := core.Config{
		FS:                vfs.NewMem(),
		Enclave:           enclave,
		MemtableSize:      memtable,
		TableFileSize:     c.paperMB(4),
		LevelBase:         int64(c.paperMB(10)),
		MaxLevels:         7,
		KeepVersions:      1, // vanilla LevelDB retention for benchmarks
		CounterInterval:   4096,
		DisableCompaction: p.disableComp,
	}
	switch p.variant {
	case P2Mmap:
		base.MmapReads = true
		return core.Open(base)
	case P2Buffer:
		base.CacheSize = defaultBytes(p.cacheBytes, c.paperMB(128))
		return core.Open(base)
	case P1:
		base.CacheSize = defaultBytes(p.cacheBytes, p.dataBytes)
		return core.OpenP1(base)
	case UnsecuredMmap:
		base.MmapReads = true
		return core.OpenUnsecured(base)
	case UnsecuredBuffer:
		base.CacheSize = defaultBytes(p.cacheBytes, p.dataBytes)
		return core.OpenUnsecured(base)
	case Eleos:
		// The 1 GB limit of §6.2, with headroom for per-entry overhead so
		// the paper's 1 GB data point itself still fits.
		return eleos.Open(eleos.Config{
			Enclave:  enclave,
			MaxBytes: int64(c.paperMB(1280)),
		})
	default:
		return nil, fmt.Errorf("bench: unknown variant %q", p.variant)
	}
}

func defaultBytes(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// loadAndWarm bulk-loads the dataset and warms buffers to steady state.
func loadAndWarm(kv core.KV, dataBytes int) error {
	n := ycsb.RecordsForBytes(int64(dataBytes))
	recs := ycsb.GenRecords(n, ycsb.DefaultValueSize)
	bl, ok := kv.(bulkLoader)
	if !ok {
		return fmt.Errorf("bench: store %T cannot bulk load", kv)
	}
	if err := bl.BulkLoad(recs); err != nil {
		return err
	}
	if w, ok := kv.(warmable); ok {
		return w.Engine().WarmCache()
	}
	return nil
}

// point builds one (variant, workload) cell in a simulated enclave with the
// scaled EPC, loads it, runs the workload, and returns the measured mean with
// the simulated time of everything the enclave counted meanwhile, spread over
// the operations.
func (c Config) point(p storeParams, wl ycsb.Workload) (Point, error) {
	sim := costmodel.New(c.epcBytes())
	kv, err := c.buildStore(p, sim.Enclave())
	if err != nil {
		return Point{}, err
	}
	defer kv.Close()
	if err := loadAndWarm(kv, p.dataBytes); err != nil {
		return Point{}, err
	}
	n := ycsb.RecordsForBytes(int64(p.dataBytes))
	r := ycsb.NewRunner(kv, wl, n, 0xe15a)
	before := sim.Counts()
	st, err := r.RunOps(c.Ops)
	if err != nil {
		return Point{}, err
	}
	counts := sim.Counts().Sub(before)
	return Point{
		MeasuredUs:  float64(st.Mean.Nanoseconds()) / 1e3,
		SimulatedUs: float64(p.prices().Price(counts).Nanoseconds()) / 1e3 / float64(c.Ops),
		Counts:      counts,
	}, nil
}

// addPoint measures one cell, leaving it empty where Eleos exceeds its
// capacity (1 GB): the paper's plots stop Eleos there too.
func (c Config) addPoint(row *Row, p storeParams, wl ycsb.Workload, series string) error {
	pt, err := c.point(p, wl)
	if errors.Is(err, eleos.ErrCapacity) {
		c.logf("    %s @ %s: skipped (%v)", series, row.X, err)
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s @ %s: %w", series, row.X, err)
	}
	c.logf("    %s @ %s: %.1f us/op measured + %.1f simulated", series, row.X, pt.MeasuredUs, pt.SimulatedUs)
	row.Series[series] = pt.MeasuredUs + pt.SimulatedUs
	if row.Points == nil {
		row.Points = map[string]Point{}
	}
	row.Points[series] = pt
	return nil
}

// mbLabel renders a paper-scale size label.
func mbLabel(mb int) string {
	if mb >= 1024 && mb%1024 == 0 {
		return fmt.Sprintf("%dGB", mb/1024)
	}
	return fmt.Sprintf("%dMB", mb)
}

// gbLabelTenths renders sizes like 0.6GB.
func gbLabelTenths(gbTenths int) string {
	return fmt.Sprintf("%.1fGB", float64(gbTenths)/10)
}
