package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"

	"elsm"
)

// header travels with every result, so that a number can be traced to the
// code, machine and inputs that produced it, and so that any later
// estimator can be recomputed from the per-trial per-step times.
type header struct {
	Commit       string      `json:"commit"`
	GoVersion    string      `json:"go_version"`
	NProc        int         `json:"nproc"`
	GOMAXPROCS   int         `json:"gomaxprocs"`
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	Seconds      float64     `json:"seconds"`
	Traced       bool        `json:"traced"`
	Keys         int         `json:"keys"`
	Trials       int         `json:"trials"`
	Passes       int         `json:"passes_per_trial"` // 2 where the pass writes nothing, else 1
	Slices       int         `json:"slices"`
	PassOps      int         `json:"pass_operations"`
	Operations   int         `json:"operations"`
	QuantileN    []int       `json:"samples_per_slice_quantile"`
	StreamHashes []string    `json:"op_stream_hashes"`
	Fingerprints [][4]uint64 `json:"setup_fingerprints"` // per trial: DiskBytes, Flushes, Compactions, BytesCompacted
	SetupWall    [][]float64 `json:"setup_step_wall_s"`  // [trial][step]
	SliceWall    [][]float64 `json:"slice_wall_s"`       // [pass][slice], a trial's passes side by side
	SliceCPU     [][]float64 `json:"slice_cpu_s"`
	SliceP50     [][]float64 `json:"slice_p50_us"`
	SliceWritten [][]float64 `json:"slice_bytes_written"` // flushed + compacted: what alignSteps aligns on
	PassStepEnds []int       `json:"pass_step_ends"`      // slices grouped into steps of equal work
	Disturbed    float64     `json:"bench.disturbed_pct"`
}

// report is what one run prints.
type report struct {
	Header    header
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Err       error // first failed operation or audit finding
}

func (r *report) correct() bool { return r.Failed == 0 && r.Err == nil }

// commit is the VCS revision the toolchain stamped into the binary; a
// checkout that is not a repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// streams generates every caller's operations for one pass.
func (c *runConfig) streams(keys int) [][]op {
	out := make([][]op, c.W.Clients)
	for i := range out {
		out[i] = genStream(c.W, keys, c.opsPerCallerSlice()*slices, c.Seed, i)
	}
	return out
}

// runTrial takes one fresh store through the paced set-up and the first
// nSlices slices of the streams. The store is left open: the caller audits,
// probes and closes it.
func runTrial(cfg *runConfig, ks *keyspace, streams [][]op, mode elsm.Mode, nSlices int, spansOn, corrupt bool) (t *trial, err error) {
	data, err := newDataset(cfg.W.Shards)
	if err != nil {
		return nil, err
	}
	t = &trial{cfg: cfg, mode: mode, ks: ks, data: data}
	defer func() {
		if err != nil {
			_ = t.close() // the error that stopped the trial is the one to report
		}
	}()
	if err := t.setUp(streams); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if corrupt {
		if err := corruptTables(data); err != nil {
			return nil, err
		}
	}
	var before map[string]float64
	if cfg.Trace {
		before = t.counters()
	}
	if err := t.passes(nSlices, spansOn); err != nil {
		return nil, err
	}
	if cfg.Trace {
		t.passCounters = counterDelta(before, t.counters())
	}
	t.amplification()
	return t, nil
}

// corruptTables flips one byte in every KiB of every SSTable: what a
// malicious host can do, and what every read path must catch. (One byte per
// table is not enough to be sure of: most of a table is embedded proofs, and
// a flipped proof byte fails only the Gets of that one key.)
func corruptTables(d *dataset) error {
	names, err := d.fs.List("")
	if err != nil {
		return err
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".sst") {
			continue
		}
		f, err := d.fs.Open(name)
		if err != nil {
			return err
		}
		size := f.Size()
		f.Close()
		for off := size / 3 % 1024; off < size; off += 1024 {
			if err := d.fs.Corrupt(name, off); err != nil {
				return err
			}
		}
	}
	return nil
}

// run is one invocation: four trials of the same work, the audit, and the
// metrics combined by the one rule (stepMinima) over every pass of every
// trial.
func run(cfg *runConfig) (*report, error) {
	w := cfg.W
	ks := newKeyspace(cfg.Keys)
	streams := cfg.streams(ks.n)
	hashes := make([]string, len(streams))
	for c := range streams {
		hashes[c] = streamHash(streams[c])
	}
	passOps := cfg.opsPerCallerSlice() * w.Clients * slices
	passes := trials * w.passes()
	rep := &report{Metrics: map[string]float64{}, Header: header{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace, Keys: ks.n,
		Trials: trials, Passes: w.passes(), Slices: slices, PassOps: passOps, Operations: passOps * passes, StreamHashes: hashes,
	}}
	h := &rep.Header

	var (
		all              []*trial
		p99s, setupWork  [][]float64
		mallocs, bytes   float64
		liveRSSMB        float64
		spaceAmp, wrAmp  []float64
		spanWall, noWall [][]float64
		spans            []span
		led              *ledger
	)
	for i := 0; i < trials; i++ {
		last := i == trials-1
		// Traced run: spans off in trials 1 and 3, on in 2 and 4.
		spansOn := cfg.Trace && i%2 == 1
		t, err := runTrial(cfg, ks, streams, elsm.ModeP2, slices, spansOn, cfg.corruptAfterSetup && last)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", i+1, err)
		}
		all = append(all, t)
		if i == 0 {
			// What the store keeps: resident memory with the store still
			// open, once everything collectable has been returned.
			collect()
			liveRSSMB = procStatusMB("VmRSS")
		}
		h.Fingerprints = append(h.Fingerprints, t.fingerprint)
		if last {
			if cfg.Trace {
				led = newLedger(cfg, ks, streams[0])
				if err := led.liveProbes(t); err != nil {
					return nil, err
				}
			}
			if err := t.finalAudit(); err != nil {
				rep.fail(err)
			}
		}
		if err := t.close(); err != nil {
			return nil, fmt.Errorf("trial %d: close: %w", i+1, err)
		}
		if !(last && cfg.Trace) {
			t.data = nil // dropped with the store; the traced run probes the last one
		}
		collect()

		h.SetupWall, setupWork = append(h.SetupWall, t.setup), append(setupWork, t.setupWork)
		spaceAmp, wrAmp = append(spaceAmp, t.spaceAmp), append(wrAmp, t.writeAmp)
		// Every pass of the trial is one more execution of the same steps.
		for lo := 0; lo < len(t.slices); lo += slices {
			var wall, cpu, p50, p99, written []float64
			for _, s := range t.slices[lo : lo+slices] {
				wall, cpu, written = append(wall, s.Wall), append(cpu, s.CPU), append(written, s.Written)
				p50, p99 = append(p50, s.P50), append(p99, s.P99)
				mallocs += float64(s.Mallocs)
				bytes += float64(s.AllocBytes)
				if len(h.QuantileN) < slices {
					h.QuantileN = append(h.QuantileN, s.Samples)
				}
			}
			h.SliceWall, h.SliceCPU, h.SliceP50 = append(h.SliceWall, wall), append(h.SliceCPU, cpu), append(h.SliceP50, p50)
			h.SliceWritten = append(h.SliceWritten, written)
			p99s = append(p99s, p99)
			if spansOn {
				spanWall = append(spanWall, wall)
			} else {
				noWall = append(noWall, wall)
			}
		}
		if spansOn {
			for _, c := range t.callers {
				spans = append(spans, c.spans...)
			}
		}
		rep.Attempted += t.attempted
		rep.Failed += t.failed
		if t.firstErr != nil {
			rep.fail(t.firstErr)
		}
		for _, c := range t.callers {
			c.spans, c.rows = nil, nil
		}
	}

	// Steps are slices grouped so that every trial did the same work in
	// each; wall and CPU time add up over a step, a latency quantile does
	// not, so it stays per slice.
	setupEnds := alignSteps(setupWork)
	h.PassStepEnds = alignSteps(h.SliceWritten)
	nSetup, nPass := float64(len(setupEnds)), float64(len(h.PassStepEnds))
	h.Disturbed = (disturbedPct(h.SetupWall, setupEnds)*nSetup + disturbedPct(h.SliceWall, h.PassStepEnds)*nPass) / (nSetup + nPass)

	if !cfg.Trace {
		ops := float64(passOps)
		m := rep.Metrics
		m["setup_s"] = sum(stepMinima(h.SetupWall, setupEnds))
		m["throughput_kops"] = ops / sum(stepMinima(h.SliceWall, h.PassStepEnds)) / 1e3
		m["op_p50_us"] = median(stepMinima(h.SliceP50, nil))
		m["cpu_us_per_op"] = sum(stepMinima(h.SliceCPU, h.PassStepEnds)) / ops * 1e6
		m["allocs_per_op"] = mallocs / (ops * float64(passes))
		m["alloc_kb_per_op"] = bytes / (ops * float64(passes)) / 1024
		m["space_amp"] = median(spaceAmp)
		m["write_amp"] = median(wrAmp)
		m["live_rss_mb"] = liveRSSMB
		return rep, nil
	}

	led.fromCounters(all)
	led.fromSpans(spans)
	led.m["bench.op_p99_us"] = median(stepMinima(p99s, nil))
	led.m["bench.disturbed_pct"] = h.Disturbed
	// Σ per-slice minima with spans on ÷ with spans off − 1, floored at 0.
	led.m["bench.trace_overhead_pct"] = 100 * (sum(stepMinima(spanWall, h.PassStepEnds))/sum(stepMinima(noWall, h.PassStepEnds)) - 1)
	if led.m["bench.trace_overhead_pct"] < 0 {
		led.m["bench.trace_overhead_pct"] = 0
	}
	if err := led.rawStore(streams); err != nil {
		return nil, fmt.Errorf("raw store: %w", err)
	}
	if err := led.offlineProbes(all[trials-1].data); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	led.m["go.peak_rss_mb"] = procStatusMB("VmHWM")
	led.finish()
	rep.Metrics = led.m
	return rep, led.writeTrace(spans)
}

func (r *report) fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
}

// finalAudit checks what the run left: one verified Iter over the key space
// must yield exactly the loaded keys with their latest acknowledged values;
// where the workload wrote, the store is closed, reopened on the same files
// with the same root of trust, and audited again.
func (t *trial) finalAudit() error {
	if err := t.auditKeyspace(); err != nil {
		return err
	}
	if !t.cfg.W.writes() {
		return nil
	}
	if err := t.close(); err != nil {
		return fmt.Errorf("close before reopen: %w", err)
	}
	var err error
	if t.store, err = t.data.open(t.cfg.W, t.mode); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if err := t.auditKeyspace(); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}

func (t *trial) auditKeyspace() error {
	it := t.store.Iter([]byte("user"), []byte("user\xff"))
	i := 0
	for it.Next() {
		if i >= t.ks.n {
			it.Close()
			return fmt.Errorf("audit: more than %d keys, extra key %q", t.ks.n, it.Key())
		}
		if string(it.Key()) != string(t.ks.keys[i]) {
			it.Close()
			return fmt.Errorf("audit: key %d is %q, want %q", i, it.Key(), t.ks.keys[i])
		}
		if err := checkValue(it.Value(), uint32(i), t.ver[i]); err != nil {
			it.Close()
			return fmt.Errorf("audit: %w", err)
		}
		i++
	}
	if err := it.Close(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if i != t.ks.n {
		return fmt.Errorf("audit: %d keys, want %d", i, t.ks.n)
	}
	return nil
}
