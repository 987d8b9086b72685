package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"elsm"
	"elsm/internal/netclient"
	"elsm/internal/netsrv"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	W       workloadSpec
	Seed    int64
	Seconds float64 // measured time of the whole run at reference speed
	Keys    int
	Trace   bool
	// TraceOut is where the traced run writes its spans.
	TraceOut string
	// corruptAfterSetup is the tamper test's hook: flip one byte in every
	// KiB of every SSTable once the last trial's set-up is done.
	corruptAfterSetup bool
}

// opsPerCallerSlice turns the reference rate into a fixed operation count:
// a pass is work, never a duration.
func (c *runConfig) opsPerCallerSlice() int {
	perPass := c.W.RateKops * 1000 * c.Seconds / float64(trials*c.W.passes())
	q := int(perPass) / (c.W.Clients * slices)
	if q < 1 {
		q = 1
	}
	return q
}

// dataset is what outlives a store: the untrusted files and the root of
// trust needed to reopen them.
type dataset struct {
	fs       *vfs.MemFS
	platform *sgx.Platform
	counters []*sgx.MonotonicCounter
}

func newDataset(shards int) (*dataset, error) {
	p, err := sgx.NewPlatform()
	if err != nil {
		return nil, err
	}
	d := &dataset{fs: vfs.NewMem(), platform: p}
	for i := 0; i < shards; i++ {
		d.counters = append(d.counters, sgx.NewMonotonicCounter())
	}
	return d, nil
}

func (d *dataset) open(w workloadSpec, mode elsm.Mode) (*elsm.Store, error) {
	return elsm.Open(elsm.Options{
		Mode:          mode,
		FS:            d.fs,
		CacheSize:     w.CacheSize,
		KeepVersions:  w.KeepVersions,
		Shards:        w.Shards,
		Platform:      d.platform,
		ShardCounters: d.counters,
	})
}

// doer is how a caller reaches the store: the facade in process, or a
// netclient connection.
type doer struct {
	layer string // span prefix: the layer the caller talks to
	get   func(key []byte) (value []byte, found bool, err error)
	put   func(key, value []byte) error
	scan  func(start, end []byte) ([]elsm.Result, error)
}

func storeDoer(s *elsm.Store) doer {
	return doer{
		layer: "elsm",
		get: func(k []byte) ([]byte, bool, error) {
			r, err := s.Get(k)
			return r.Value, r.Found, err
		},
		put:  func(k, v []byte) error { _, err := s.Put(k, v); return err },
		scan: s.Scan,
	}
}

func clientDoer(c *netclient.Client) doer {
	return doer{
		layer: "netclient",
		get: func(k []byte) ([]byte, bool, error) {
			r, err := c.Get(k)
			return r.Value, r.Found, err
		},
		put: func(k, v []byte) error { _, err := c.Put(k, v); return err },
		scan: func([]byte, []byte) ([]elsm.Result, error) {
			return nil, errors.New("benchmark: no workload scans over the wire")
		},
	}
}

// Outcome of one operation, recorded in the timed loop and judged by the
// audit once the slice's clock has stopped.
const (
	stFound uint8 = iota + 1
	stNotFound
	stOK
	stErr
)

// caller is one closed-loop client with its pre-generated stream and the
// per-operation records of the current pass.
type caller struct {
	id  int
	ops []op
	do  doer
	// ver is shared by all callers: the version last written per key.
	// A key has one writer, so no two callers touch the same element.
	ver []uint32
	val [valueSize]byte

	lat    []int64 // ns per operation
	status []uint8
	gotIdx []uint32
	gotVer []uint32
	rows   [][]elsm.Result // the current slice's scan results
	err    error           // first error seen, for the report

	spansOn   bool
	pass      int // which of the trial's passes is running: part of a span's id
	spans     []span
	spanNames [opPut + 1]string // per operation kind, built once: no allocation per span
	// acked replays the stream during the audit: the version of each owned
	// key as of the last audited operation; puts counts them.
	acked map[uint32]uint32
	puts  int
}

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// run executes ops[lo:hi]. With warm set it is the read-only warm-up:
// Puts become Gets and nothing is recorded.
func (c *caller) run(ks *keyspace, lo, hi int, warm bool) {
	c.rows = c.rows[:0]
	t0 := nanotime()
	for i := lo; i < hi; i++ {
		o := c.ops[i]
		kind := o.kind
		if warm && kind == opPut {
			kind = opGet
		}
		var st uint8
		var err error
		switch kind {
		case opGet, opGetAbsent:
			key := ks.keys[o.idx]
			if kind == opGetAbsent {
				key = ks.absent[o.idx]
			}
			var v []byte
			var found bool
			v, found, err = c.do.get(key)
			switch {
			case err != nil:
			case !found:
				st = stNotFound
			default:
				st = stFound
				if !warm {
					c.gotIdx[i], c.gotVer[i], _ = valueHeader(v)
				}
			}
		case opScan:
			var rows []elsm.Result
			rows, err = c.do.scan(ks.keys[o.idx], ks.keys[int(o.idx)+scanLen-1])
			st = stOK
			if !warm {
				c.rows = append(c.rows, rows)
			}
		case opPut:
			c.ver[o.idx]++
			fillValue(c.val[:], o.idx, c.ver[o.idx])
			err = c.do.put(ks.keys[o.idx], c.val[:])
			st = stOK
		}
		if err != nil {
			st = stErr
			if c.err == nil {
				c.err = fmt.Errorf("caller %d op %d (%v key %d): %w", c.id, i, o.kind, o.idx, err)
			}
		}
		if warm {
			continue
		}
		t1 := nanotime()
		c.status[i] = st
		c.lat[i] = t1 - t0
		if c.spansOn {
			id := uint64(c.id+1)<<40 | uint64(c.pass)<<32 | uint64(i+1)
			c.spans = append(c.spans, span{ID: id, Op: id, Name: c.spanNames[o.kind], Start: t0, End: t1})
		}
		t0 = t1
	}
}

// audit judges ops[lo:hi] from what run recorded, and returns how many
// failed: any error or BUSY, a value that does not name the requested key,
// a version older than the caller's own last acknowledged write, an absent
// key that was found, a scan that is not exactly 50 rows in order.
func (c *caller) audit(ks *keyspace, callers, lo, hi int) int {
	failed, scans := 0, 0
	fail := func(i int, format string, args ...interface{}) {
		failed++
		if c.err == nil {
			c.err = fmt.Errorf("caller %d op %d (%v key %d): %s", c.id, i, c.ops[i].kind, c.ops[i].idx, fmt.Sprintf(format, args...))
		}
	}
	for i := lo; i < hi; i++ {
		o := c.ops[i]
		st := c.status[i]
		if st == stErr {
			failed++
			if o.kind == opScan {
				scans++
			}
			continue
		}
		switch o.kind {
		case opGet:
			switch {
			case st != stFound:
				fail(i, "not found")
			case c.gotIdx[i] != o.idx:
				fail(i, "value names key %d", c.gotIdx[i])
			case int(o.idx)%callers == c.id && c.gotVer[i] < c.acked[o.idx]:
				fail(i, "read version %d after own write of version %d was acknowledged", c.gotVer[i], c.acked[o.idx])
			}
		case opGetAbsent:
			if st != stNotFound {
				fail(i, "absent key was found")
			}
		case opScan:
			rows := c.rows[scans]
			scans++
			if len(rows) != scanLen {
				fail(i, "scan returned %d rows, want %d", len(rows), scanLen)
				continue
			}
			for j, r := range rows {
				idx := o.idx + uint32(j)
				_, ver, _ := valueHeader(r.Value)
				if string(r.Key) != string(ks.keys[idx]) {
					fail(i, "row %d is key %q, want %q", j, r.Key, ks.keys[idx])
					break
				}
				if err := checkValue(r.Value, idx, ver); err != nil {
					fail(i, "row %d: %v", j, err)
					break
				}
			}
		case opPut:
			c.acked[o.idx]++
			c.puts++
		}
	}
	return failed
}

// sliceMeasure is one step of a pass: equal work in every trial.
type sliceMeasure struct {
	Wall, CPU  float64 // seconds
	P50, P99   float64 // µs, primary operation
	Samples    int
	Written    float64 // bytes flushed + compacted: the step's work, for alignSteps
	Mallocs    uint64
	AllocBytes uint64
}

// trial is one fresh store taken through the paced set-up and one pass.
type trial struct {
	cfg   *runConfig
	mode  elsm.Mode
	ks    *keyspace
	data  *dataset
	store *elsm.Store
	srv   *netsrv.Server
	srvWG sync.WaitGroup
	conns []*netclient.Client

	callers []*caller
	ver     []uint32

	setup       []float64 // wall seconds per set-up step
	setupWork   []float64 // bytes flushed + compacted per set-up step
	fingerprint [4]uint64 // DiskBytes, Flushes, Compactions, BytesCompacted after the load
	slices      []sliceMeasure
	attempted   int
	failed      int
	firstErr    error

	spaceAmp, writeAmp float64
	passCounters       map[string]float64 // traced run: counter deltas over the pass
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusMB reads a "VmRSS:"-style line of /proc/self/status.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func collect() {
	runtime.GC()
	debug.FreeOSMemory()
}

// bytesWritten is the engine's work so far: what it flushed and compacted.
func (t *trial) bytesWritten() float64 {
	if t.store == nil {
		return 0
	}
	st := t.store.Stats()
	return float64(st.BytesFlushed + st.BytesCompacted)
}

// step times one set-up step.
func (t *trial) step(fn func() error) error {
	written, start := t.bytesWritten(), time.Now()
	err := fn()
	t.setup = append(t.setup, time.Since(start).Seconds())
	t.setupWork = append(t.setupWork, t.bytesWritten()-written)
	return err
}

func (t *trial) quiesce() error {
	if err := t.store.Flush(); err != nil {
		return err
	}
	return t.store.WaitMaintenance()
}

// setUp is the paced set-up: Open, then the load in scattered key order
// with a quiesce point after every 512 records per shard, then the server
// and connections where the workload has them, then a read-only warm-up of
// one slice. Racing the loader against background compaction would leave a
// different tree every run; paced, the tree is byte-identical.
func (t *trial) setUp(streams [][]op) error {
	w := t.cfg.W
	if err := t.step(func() (err error) {
		t.store, err = t.data.open(w, t.mode)
		return err
	}); err != nil {
		return err
	}
	order := loadOrder(t.ks.n)
	var val [valueSize]byte
	for lo := 0; lo < len(order); lo += loadPerStep * w.Shards {
		hi := lo + loadPerStep*w.Shards
		if hi > len(order) {
			hi = len(order)
		}
		if err := t.step(func() error {
			b := t.store.NewBatch()
			for _, idx := range order[lo:hi] {
				fillValue(val[:], uint32(idx), 0)
				b.Put(t.ks.keys[idx], val[:])
				if b.Len() == loadBatch {
					if _, err := b.Commit(); err != nil {
						return err
					}
				}
			}
			if _, err := b.Commit(); err != nil {
				return err
			}
			return t.quiesce()
		}); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	st := t.store.Stats()
	t.fingerprint = [4]uint64{uint64(st.DiskBytes), st.Flushes, st.Compactions, st.BytesCompacted}

	doers := make([]doer, w.Clients)
	if w.Conns > 0 {
		if err := t.step(func() error { return t.serve(doers) }); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	} else {
		for i := range doers {
			doers[i] = storeDoer(t.store)
		}
	}
	t.ver = make([]uint32, t.ks.n)
	for i, ops := range streams {
		n := len(ops)
		t.callers = append(t.callers, &caller{
			id: i, ops: ops, do: doers[i], ver: t.ver,
			lat: make([]int64, n), status: make([]uint8, n),
			gotIdx: make([]uint32, n), gotVer: make([]uint32, n),
			acked: make(map[uint32]uint32),
		})
	}
	return t.step(func() error {
		t.each(func(c *caller) { c.run(t.ks, 0, t.cfg.opsPerCallerSlice(), true) })
		return nil
	})
}

// serve starts netsrv on a loopback listener inside this process and dials
// the workload's connections; callers are dealt round the connections.
func (t *trial) serve(doers []doer) error {
	w := t.cfg.W
	srv, err := netsrv.New(t.store, netsrv.Config{})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.srv = srv
	t.srvWG.Add(1)
	go func() {
		defer t.srvWG.Done()
		_ = srv.Serve(ln) // returns when Close shuts the listener
	}()
	for i := 0; i < w.Conns; i++ {
		c, err := netclient.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		t.conns = append(t.conns, c)
	}
	for i := range doers {
		doers[i] = clientDoer(t.conns[i%w.Conns])
	}
	return nil
}

// each runs fn once per caller, concurrently, and waits.
func (t *trial) each(fn func(*caller)) {
	var wg sync.WaitGroup
	for _, c := range t.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// passes runs the first n slices of the streams, twice over where the
// workload writes nothing (workloadSpec.passes). Every slice has its own wall
// clock, CPU clock, heap counters and exact latency samples; on a workload
// that writes it ends with a drain inside its clock, so deferred compaction
// is charged to the slice that caused it and the next one starts quiesced.
func (t *trial) passes(n int, spansOn bool) error {
	q := t.cfg.opsPerCallerSlice()
	reps := t.cfg.W.passes()
	for _, c := range t.callers {
		c.spansOn = spansOn
		if spansOn {
			c.spans = make([]span, 0, reps*n*q)
			for k := opGet; k <= opPut; k++ {
				c.spanNames[k] = clientSpan(c.do.layer, k)
			}
		}
	}
	var m0, m1 runtime.MemStats
	samples := make([]int64, 0, q*len(t.callers))
	primary := t.cfg.W.Primary
	for k := 0; k < reps*n; k++ {
		lo, hi := k%n*q, (k%n+1)*q
		for _, c := range t.callers {
			c.pass = k / n
		}
		runtime.ReadMemStats(&m0)
		written0 := t.bytesWritten()
		cpu0, wall0 := cpuSeconds(), time.Now()
		t.each(func(c *caller) { c.run(t.ks, lo, hi, false) })
		if t.cfg.W.writes() {
			if err := t.quiesce(); err != nil {
				return fmt.Errorf("drain after slice %d: %w", k, err)
			}
		}
		wall := time.Since(wall0).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&m1)

		samples = samples[:0]
		for _, c := range t.callers {
			t.failed += c.audit(t.ks, len(t.callers), lo, hi)
			if t.firstErr == nil {
				t.firstErr = c.err
			}
			for i := lo; i < hi; i++ {
				if c.ops[i].kind.class() == primary {
					samples = append(samples, c.lat[i])
				}
			}
		}
		t.attempted += (hi - lo) * len(t.callers)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		t.slices = append(t.slices, sliceMeasure{
			Wall: wall, CPU: cpu,
			P50: float64(quantile(samples, 0.50)) / 1e3, P99: float64(quantile(samples, 0.99)) / 1e3,
			Samples: len(samples), Written: t.bytesWritten() - written0,
			Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		})
	}
	return nil
}

// amplification reads what the pass left: bytes on the (memory) disk per
// live user byte, and bytes the engine wrote per user byte written, both
// since Open — exact, and non-zero on read-only workloads too.
func (t *trial) amplification() {
	live := float64(t.ks.n * userRecord)
	t.spaceAmp = float64(t.data.fs.TotalBytes()) / live
	t.writeAmp = t.bytesWritten() / (live + float64(t.puts()*userRecord))
}

// puts is how many Puts the audited passes made.
func (t *trial) puts() int {
	n := 0
	for _, c := range t.callers {
		n += c.puts
	}
	return n
}

// close stops the connections, the server and the store, in that order,
// and waits for each.
func (t *trial) close() error {
	for _, c := range t.conns {
		_ = c.Close() // the server side is closed next; nothing is in flight
	}
	t.conns = nil
	if t.srv != nil {
		if err := t.srv.Close(); err != nil {
			return err
		}
		t.srvWG.Wait()
		t.srv = nil
	}
	if t.store == nil {
		return nil
	}
	err := t.store.Close()
	t.store = nil
	return err
}
