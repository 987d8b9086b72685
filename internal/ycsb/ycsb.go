// Package ycsb is a native Go implementation of the YCSB workload
// framework (Cooper et al., SoCC'10) used throughout the paper's
// evaluation (§6): key generators with uniform, (scrambled) zipfian and
// latest distributions, the standard workload mixes A–F, a load phase, and
// a runner that drives any core.KV and records per-operation latencies.
package ycsb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"elsm/internal/core"
	"elsm/internal/obs"
	"elsm/internal/record"
)

// Distribution selects the key-popularity distribution (§6.2, Figure 5c).
type Distribution int

const (
	// Uniform draws keys uniformly.
	Uniform Distribution = iota + 1
	// Zipfian draws keys with a scrambled zipf(0.99) popularity skew.
	Zipfian
	// Latest skews toward the most recently inserted keys.
	Latest
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case Latest:
		return "latest"
	default:
		return fmt.Sprintf("distribution(%d)", int(d))
	}
}

// Default record shape (§6.1: "each with a 16-byte key and 100-byte value
// by default").
const (
	DefaultKeySize   = 16
	DefaultValueSize = 100
)

// Key formats the i-th record key (16 bytes: "user" + 12 digits).
func Key(i uint64) []byte {
	return []byte(fmt.Sprintf("user%012d", i))
}

// Value deterministically generates the value for key index i, sized n.
func Value(i uint64, n int) []byte {
	out := make([]byte, n)
	seed := i*2654435761 + 12345
	for j := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[j] = 'a' + byte(seed>>57)%26
	}
	return out
}

// ---------------------------------------------------------------------------
// Generators

// zipfian is the standard YCSB zipfian generator (theta = 0.99).
type zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

func newZipfian(n uint64) *zipfian {
	const theta = 0.99
	z := &zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

func (z *zipfian) next(rnd *rand.Rand) uint64 {
	u := rnd.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// fnvScramble spreads zipfian hotspots across the key space (YCSB's
// "scrambled zipfian").
func fnvScramble(v, n uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime
	}
	return h % n
}

// KeyChooser draws key indices according to a distribution.
type KeyChooser struct {
	dist Distribution
	n    uint64
	zipf *zipfian
	rnd  *rand.Rand
	// insertCount tracks the live key count for Latest.
	insertCount uint64
}

// NewKeyChooser builds a chooser over n keys.
func NewKeyChooser(dist Distribution, n uint64, seed int64) *KeyChooser {
	c := &KeyChooser{dist: dist, n: n, rnd: rand.New(rand.NewSource(seed)), insertCount: n}
	if dist == Zipfian || dist == Latest {
		c.zipf = newZipfian(n)
	}
	return c
}

// Next draws a key index.
func (c *KeyChooser) Next() uint64 {
	switch c.dist {
	case Uniform:
		return uint64(c.rnd.Int63n(int64(c.n)))
	case Zipfian:
		return fnvScramble(c.zipf.next(c.rnd), c.n)
	case Latest:
		off := c.zipf.next(c.rnd)
		if off >= c.insertCount {
			off = c.insertCount - 1
		}
		return c.insertCount - 1 - off
	default:
		panic(fmt.Sprintf("ycsb: unknown distribution %d", c.dist))
	}
}

// NoteInsert informs the chooser a new key index exists (Latest skew).
func (c *KeyChooser) NoteInsert() uint64 {
	idx := c.insertCount
	c.insertCount++
	return idx
}

// ---------------------------------------------------------------------------
// Workloads

// Workload is an operation mix over a loaded dataset.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	RMWProp    float64
	Dist       Distribution
	// ScanLen is the maximum range-scan length (workload E).
	ScanLen int
	// ValueSize overrides DefaultValueSize when positive.
	ValueSize int
}

// The six standard YCSB core workloads.
func WorkloadA() Workload {
	return Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5, Dist: Zipfian}
}
func WorkloadB() Workload {
	return Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05, Dist: Zipfian}
}
func WorkloadC() Workload {
	return Workload{Name: "C", ReadProp: 1.0, Dist: Zipfian}
}
func WorkloadD() Workload {
	return Workload{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Dist: Latest}
}
func WorkloadE() Workload {
	return Workload{Name: "E", ScanProp: 0.95, InsertProp: 0.05, Dist: Zipfian, ScanLen: 50}
}
func WorkloadF() Workload {
	return Workload{Name: "F", ReadProp: 0.5, RMWProp: 0.5, Dist: Zipfian}
}

// Mix builds the paper's read-percentage sweep workloads (Figure 5a):
// readPct% reads, the rest updates.
func Mix(readPct int, dist Distribution) Workload {
	return Workload{
		Name:       fmt.Sprintf("mix%d", readPct),
		ReadProp:   float64(readPct) / 100,
		UpdateProp: 1 - float64(readPct)/100,
		Dist:       dist,
	}
}

// ---------------------------------------------------------------------------
// Load phase

// GenRecords produces the sorted record set for the load phase (BulkLoad).
func GenRecords(n int, valueSize int) []record.Record {
	if valueSize <= 0 {
		valueSize = DefaultValueSize
	}
	recs := make([]record.Record, n)
	for i := 0; i < n; i++ {
		recs[i] = record.Record{
			Key:   Key(uint64(i)),
			Ts:    uint64(i + 1),
			Kind:  record.KindSet,
			Value: Value(uint64(i), valueSize),
		}
	}
	sort.Slice(recs, func(a, b int) bool { return record.CompareRecords(recs[a], recs[b]) < 0 })
	return recs
}

// RecordsForBytes returns how many default-shaped records approximate the
// given dataset size.
func RecordsForBytes(bytes int64) int {
	per := int64(DefaultKeySize + DefaultValueSize)
	n := bytes / per
	if n < 1 {
		n = 1
	}
	return int(n)
}

// DB is the minimal store surface the YCSB driver needs: the two reads and
// the one synchronous write of core.KV (so every eLSM store mode satisfies
// it); tests drive it with trivial fakes without having to stub sessions
// and async durability.
type DB interface {
	core.Reader
	Commit(ctx context.Context, ops []core.BatchOp) (uint64, error)
}

// Load inserts n records through the KV's write path (the slow, realistic
// load used by small experiments; large ones use BulkLoad).
func Load(kv DB, n int, valueSize int) error {
	if valueSize <= 0 {
		valueSize = DefaultValueSize
	}
	for i := 0; i < n; i++ {
		if _, err := core.Put(kv, Key(uint64(i)), Value(uint64(i), valueSize)); err != nil {
			return fmt.Errorf("ycsb load at %d: %w", i, err)
		}
	}
	return nil
}

// LoadBatched inserts n records through the grouped write path in batches
// of batchSize, amortizing enclave round trips and group fsyncs across each
// batch (the batched-ingestion load phase).
func LoadBatched(kv DB, n, valueSize, batchSize int) error {
	if valueSize <= 0 {
		valueSize = DefaultValueSize
	}
	if batchSize <= 1 {
		return Load(kv, n, valueSize)
	}
	ops := make([]core.BatchOp, 0, batchSize)
	for i := 0; i < n; i++ {
		ops = append(ops, core.BatchOp{Key: Key(uint64(i)), Value: Value(uint64(i), valueSize)})
		if len(ops) == batchSize || i == n-1 {
			if _, err := kv.Commit(nil, ops); err != nil {
				return fmt.Errorf("ycsb batched load at %d: %w", i, err)
			}
			ops = ops[:0]
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Runner

// Stats summarizes measured latencies.
type Stats struct {
	Ops    int
	Errors int
	Mean   time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	Total  time.Duration
}

// String renders one figure-style row.
func (s Stats) String() string {
	return fmt.Sprintf("ops=%d mean=%v p50=%v p95=%v p99=%v", s.Ops, s.Mean, s.P50, s.P95, s.P99)
}

// Runner drives a workload against a store.
type Runner struct {
	KV       DB
	Workload Workload
	Chooser  *KeyChooser
	rnd      *rand.Rand
	seq      uint64
}

// NewRunner prepares a runner over a dataset of n loaded records.
func NewRunner(kv DB, wl Workload, n int, seed int64) *Runner {
	return &Runner{
		KV:       kv,
		Workload: wl,
		Chooser:  NewKeyChooser(wl.Dist, uint64(n), seed),
		rnd:      rand.New(rand.NewSource(seed + 1)),
		seq:      uint64(n),
	}
}

// RunOps executes n operations, measuring per-op latency. Latencies feed
// the store's shared log-bucket histogram (internal/obs) rather than a
// private sorted slice: constant memory for any op count, and the same
// quantile estimator the server's /metrics endpoint reports, so bench
// numbers and production scrapes are directly comparable.
func (r *Runner) RunOps(n int) (Stats, error) {
	var hist obs.Histogram
	errs := 0
	valueSize := r.Workload.ValueSize
	if valueSize <= 0 {
		valueSize = DefaultValueSize
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		p := r.rnd.Float64()
		wl := r.Workload
		opStart := time.Now()
		var err error
		switch {
		case p < wl.ReadProp:
			_, err = core.Get(r.KV, Key(r.Chooser.Next()))
		case p < wl.ReadProp+wl.UpdateProp:
			idx := r.Chooser.Next()
			_, err = core.Put(r.KV, Key(idx), Value(idx+r.seq, valueSize))
		case p < wl.ReadProp+wl.UpdateProp+wl.InsertProp:
			idx := r.Chooser.NoteInsert()
			_, err = core.Put(r.KV, Key(idx), Value(idx, valueSize))
		case p < wl.ReadProp+wl.UpdateProp+wl.InsertProp+wl.ScanProp:
			// Range reads stream through the verified iterator, the way a
			// production client would consume a large range.
			startIdx := r.Chooser.Next()
			ln := 1 + r.rnd.Intn(max(wl.ScanLen, 1))
			it := r.KV.IterAt(nil, Key(startIdx), Key(startIdx+uint64(ln)), record.MaxTs)
			for it.Next() {
			}
			err = it.Close()
		default: // read-modify-write
			idx := r.Chooser.Next()
			var res core.Result
			res, err = core.Get(r.KV, Key(idx))
			if err == nil {
				v := append(res.Value, byte('!'))
				_, err = core.Put(r.KV, Key(idx), v)
			}
		}
		hist.ObserveDuration(time.Since(opStart))
		if err != nil {
			errs++
			if errs > n/10 {
				return Stats{}, fmt.Errorf("ycsb: excessive errors (%d/%d), last: %w", errs, i+1, err)
			}
		}
	}
	total := time.Since(start)
	return summarize(&hist, errs, total), nil
}

// summarize folds the latency histogram into the figure-style Stats row.
// Quantiles are bucket-midpoint estimates (≤ ~12% relative error), the
// trade for never sorting or retaining per-op samples.
func summarize(h *obs.Histogram, errs int, total time.Duration) Stats {
	snap := h.Snapshot()
	if snap.Count == 0 {
		return Stats{Errors: errs, Total: total}
	}
	return Stats{
		Ops:    int(snap.Count),
		Errors: errs,
		Mean:   time.Duration(snap.Mean()),
		P50:    time.Duration(snap.Quantile(0.50)),
		P95:    time.Duration(snap.Quantile(0.95)),
		P99:    time.Duration(snap.Quantile(0.99)),
		Total:  total,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
