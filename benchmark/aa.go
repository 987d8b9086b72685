package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// aaRun is one run as aa.sh recorded it: a set marker line, then the two
// lines the benchmark prints.
type aaRun struct {
	set    string
	header header
	result result
}

func readAARuns(path string) ([]aaRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []aaRun
	var cur *aaRun
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var line struct {
			Set     *string          `json:"aa_set"`
			Header  *header          `json:"header"`
			Metrics *json.RawMessage `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch {
		case line.Set != nil:
			runs = append(runs, aaRun{set: *line.Set})
			cur = &runs[len(runs)-1]
		case cur == nil:
			return nil, fmt.Errorf("%s: a run without its aa_set line", path)
		case line.Header != nil:
			cur.header = *line.Header
		case line.Metrics != nil:
			if err := json.Unmarshal(sc.Bytes(), &cur.result); err != nil {
				return nil, err
			}
		}
	}
	return runs, sc.Err()
}

// aaReport prints AA.md from AA.runs.jsonl: two alternating sets of runs of
// one build. Per metric × workload: each set's median and quartiles, the
// gap between the medians, and the wider quartile distance ÷ median; FAIL
// if either exceeds the metric's bound. It returns an error when anything
// failed, so aa.sh exits non-zero.
func aaReport(path string, w io.Writer) error {
	runs, err := readAARuns(path)
	if err != nil {
		return err
	}
	failures := 0
	fmt.Fprintf(w, "# A/A: two alternating sets of runs of one build\n\n")
	fmt.Fprintf(w, "Generated by `benchmark/aa.sh` from `AA.runs.jsonl` (%d runs). ", len(runs))
	fmt.Fprintf(w, "Quartiles are Python's `statistics.quantiles(values, n=4)`; ")
	fmt.Fprintf(w, "spread = the wider set's (q3 - q1) / median; gap = |median B - median A| / median A.\n\n")
	if len(runs) > 0 {
		h := runs[0].header
		fmt.Fprintf(w, "commit `%s`, %s, nproc %d, GOMAXPROCS %d, %d keys, T = %d (%d passes a trial where nothing is written), S = %d, --seconds %g\n\n",
			h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Keys, h.Trials, readPasses, h.Slices, h.Seconds)
	}
	for _, wl := range workloads {
		sets := map[string][]aaRun{}
		for _, r := range runs {
			if r.header.Workload == wl.Name && !r.header.Traced {
				sets[r.set] = append(sets[r.set], r)
			}
		}
		a, b := sets["A"], sets["B"]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		fmt.Fprintf(w, "## %s (%d + %d runs)\n\n", wl.Name, len(a), len(b))
		fmt.Fprintf(w, "| metric | unit | A q1 / median / q3 | B q1 / median / q3 | gap | spread | bound | |\n|---|---|---|---|---|---|---|---|\n")
		for _, spec := range endToEnd {
			col := func(rs []aaRun) (vals []float64) {
				for _, r := range rs {
					vals = append(vals, r.result.Metrics[spec.Name].Value)
				}
				return vals
			}
			a1, am, a3 := quartiles(col(a))
			b1, bm, b3 := quartiles(col(b))
			gap := math.Abs(bm-am) / am
			spread := math.Max((a3-a1)/am, (b3-b1)/bm)
			verdict := "ok"
			if gap > spec.Bound || spread > spec.Bound {
				verdict = "**FAIL**"
				failures++
			}
			fmt.Fprintf(w, "| `%s` | %s | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %.2f %% | %.2f %% | %.0f %% | %s |\n",
				spec.Name, spec.Unit, a1, am, a3, b1, bm, b3, 100*gap, 100*spread, 100*spec.Bound, verdict)
		}
		failures += aaExact(w, wl, append(a, b...))
		fmt.Fprintln(w)
	}
	if failures > 0 {
		fmt.Fprintf(w, "**%d FAIL**\n", failures)
		return fmt.Errorf("A/A: %d checks failed", failures)
	}
	fmt.Fprintf(w, "No FAIL.\n")
	return nil
}

// aaExact checks what must repeat (almost) exactly across every run of a
// workload: the set-up fingerprint, byte for byte; and on the read-only
// workloads, allocations and both amplifications within 0.5 %.
func aaExact(w io.Writer, wl workloadSpec, rs []aaRun) (failures int) {
	// A trial's fingerprint is (disk bytes, flushes, compactions, bytes
	// compacted). The tree is the same when disk bytes and flushes are; the
	// store's scheduler may still, rarely, reach it by another compaction
	// schedule (two level merges folded into one), which is reported, not
	// failed: the benchmark cannot make the store's scheduler deterministic.
	fps, trees, n := map[[4]uint64]int{}, map[[2]uint64]int{}, 0
	disturbed := make([]float64, 0, len(rs))
	for _, r := range rs {
		for _, fp := range r.header.Fingerprints {
			fps[fp]++
			trees[[2]uint64{fp[0], fp[1]}]++
			n++
		}
		disturbed = append(disturbed, r.header.Disturbed)
	}
	sort.Float64s(disturbed)
	var usual [4]uint64
	for fp, c := range fps {
		if c > fps[usual] {
			usual = fp
		}
	}
	fmt.Fprintf(w, "\nSet-up fingerprint (disk bytes, flushes, compactions, bytes compacted): ")
	switch {
	case len(fps) == 1:
		fmt.Fprintf(w, "identical in all %d trials of all %d runs: `%v`. ", n, len(rs), usual)
	case len(trees) == 1:
		fmt.Fprintf(w, "`%v` in %d of %d trials; the other %d reached the same tree (same disk bytes and flushes) by another compaction schedule. ",
			usual, fps[usual], n, n-fps[usual])
	default:
		fmt.Fprintf(w, "**FAIL**: %d different trees in %d trials. ", len(trees), n)
		failures++
	}
	fmt.Fprintf(w, "`bench.disturbed_pct` median %.1f, max %.1f.\n", median(disturbed), disturbed[len(disturbed)-1])
	if wl.writes() {
		return failures
	}
	for _, name := range []string{"allocs_per_op", "space_amp", "write_amp"} {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rs {
			v := r.result.Metrics[name].Value
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		rng := (hi - lo) / lo
		verdict := "ok"
		if rng > 0.005 {
			verdict = "**FAIL**"
			failures++
		}
		fmt.Fprintf(w, "`%s` range over all runs: %.3f %% (limit 0.5 %%) %s.\n", name, 100*rng, verdict)
	}
	return failures
}
