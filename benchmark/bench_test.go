package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"elsm"
)

// smokeConfig is a run small enough for the test budget: 2 000 keys and a
// few hundred operations per pass, everything else as in the benchmark.
func smokeConfig(t *testing.T, w workloadSpec, trace bool) *runConfig {
	return &runConfig{
		W: w, Seed: 7, Seconds: 0.2, Keys: 2000, Trace: trace,
		TraceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a := streamHash(genStream(w, 2000, 500, 42, 1))
		b := streamHash(genStream(w, 2000, 500, 42, 1))
		if a != b {
			t.Errorf("%s: seed 42 gave streams %s and %s", w.Name, a, b)
		}
		if c := streamHash(genStream(w, 2000, 500, 43, 1)); c == a {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.Name)
		}
		if c := streamHash(genStream(w, 2000, 500, 42, 0)); c == a {
			t.Errorf("%s: callers 0 and 1 of one seed gave the same stream", w.Name)
		}
	}
}

func TestOwnedKeysHaveOneWriter(t *testing.T) {
	w, _ := findWorkload("wire-mixed")
	writer := map[uint32]int{}
	for c := 0; c < w.Clients; c++ {
		for _, o := range genStream(w, 2000, 2000, 1, c) {
			if o.kind != opPut {
				continue
			}
			if prev, ok := writer[o.idx]; ok && prev != c {
				t.Fatalf("key %d written by callers %d and %d", o.idx, prev, c)
			}
			writer[o.idx] = c
		}
	}
	if len(writer) == 0 {
		t.Fatal("no Puts generated")
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.0, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d", got)
	}
}

func TestStepMinimaAndDisturbed(t *testing.T) {
	perTrial := [][]float64{
		{1.0, 9.0, 3.0, 4.0},
		{2.0, 2.0, 3.1, 4.0},
		{1.5, 2.2, 9.0, 4.0},
		{1.1, 2.1, 3.2, 4.0},
	}
	if got, want := stepMinima(perTrial, nil), []float64{1.0, 2.0, 3.0, 4.0}; !reflect.DeepEqual(got, want) {
		t.Errorf("stepMinima = %v, want %v", got, want)
	}
	if got := sum(stepMinima(perTrial, nil)); got != 10 {
		t.Errorf("sum of minima = %v, want 10", got)
	}
	// Step 0: median 1.3 over a minimum of 1.0 is disturbed; step 1 (2.15 over
	// 2.0), step 2 (3.15 over 3.0) and step 3 (equal) are within 15 %.
	if got := disturbedPct(perTrial, nil); got != 25 {
		t.Errorf("disturbedPct = %v, want 25", got)
	}
}

// A compaction that lands in slice 1 in three trials and in slice 2 in the
// fourth must not vanish from the sum of per-step minima: the two slices
// become one step.
func TestAlignStepsKeepsShiftedWork(t *testing.T) {
	written := [][]float64{
		{10, 30, 10, 0},
		{10, 30.5, 10.1, 0},
		{10, 9.9, 30, 0}, // the rewrite came one slice later
		{10, 30, 10, 0},
	}
	wall := [][]float64{
		{1, 3, 1, 1},
		{1, 3, 1, 1},
		{1, 1, 3, 1},
		{1, 3, 1, 1},
	}
	ends := alignSteps(written)
	if want := []int{1, 3, 4}; !reflect.DeepEqual(ends, want) {
		t.Fatalf("alignSteps = %v, want %v", ends, want)
	}
	if got := sum(stepMinima(wall, ends)); got != 6 {
		t.Errorf("aligned sum of minima = %v, want 6 (unaligned it would be %v)", got, sum(stepMinima(wall, nil)))
	}
	// Nothing written: every slice is a step.
	if got := alignSteps([][]float64{{0, 0, 0}, {0, 0, 0}}); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("alignSteps of a read-only pass = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "get", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "lookup", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "verify", Start: 30, End: 60}, // overlaps lookup by 10
		{ID: 4, Parent: 3, Op: 1, Name: "hash", Start: 35, End: 55},
		{ID: 5, Parent: 1, Op: 1, Name: "verify", Start: 90, End: 120}, // sticks out of its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"get": 100 - 30 - 20 - 10, "lookup": 30, "verify": (30 - 20) + 30, "hash": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestValueNamesKeyAndVersion(t *testing.T) {
	var v [valueSize]byte
	fillValue(v[:], 1234, 56)
	if err := checkValue(v[:], 1234, 56); err != nil {
		t.Fatal(err)
	}
	if checkValue(v[:], 1234, 57) == nil || checkValue(v[:], 1235, 56) == nil || checkValue(v[:50], 1234, 56) == nil {
		t.Error("a wrong key, version or size passed the check")
	}
	v[60] ^= 1
	if checkValue(v[:], 1234, 56) == nil {
		t.Error("corrupt filler passed the check")
	}
}

// Two paced loads must leave byte-identical trees: same disk bytes, flushes,
// compactions and bytes compacted.
func TestPacedLoadFingerprintRepeats(t *testing.T) {
	for _, name := range []string{"read-zipf", "wire-mixed"} {
		w, _ := findWorkload(name)
		cfg := smokeConfig(t, w, false)
		ks := newKeyspace(cfg.Keys)
		var fps [2][4]uint64
		for i := range fps {
			tr, err := runTrial(cfg, ks, cfg.streams(ks.n), elsm.ModeP2, 0, false, false)
			if err != nil {
				t.Fatal(err)
			}
			fps[i] = tr.fingerprint
			if err := tr.close(); err != nil {
				t.Fatal(err)
			}
		}
		if fps[0] != fps[1] || fps[0][0] == 0 || fps[0][1] == 0 {
			t.Errorf("%s: fingerprints %v and %v", name, fps[0], fps[1])
		}
	}
}

// A 2 000-key run of every workload, untraced and traced, passes the audit
// and emits every metric BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			var out, errOut bytes.Buffer
			if code := execute(cfg, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%v: exit %d: %s", w.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var head struct {
				Header map[string]interface{} `json:"header"`
			}
			if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"commit", "go_version", "nproc", "gomaxprocs", "seed", "keys", "operations",
				"samples_per_slice_quantile", "op_stream_hashes", "trials", "passes_per_trial", "slices",
				"setup_step_wall_s", "slice_wall_s", "bench.disturbed_pct"} {
				if _, ok := head.Header[k]; !ok {
					t.Errorf("%s: header lacks %q", w.Name, k)
				}
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 {
				t.Errorf("%s: result has keys %v", w.Name, res)
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, r.Correct, r.Attempted, r.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(r.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(r.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := r.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s: metric %s missing or in unit %q", w.Name, s.Name, m.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, m.Value)
				}
			}
			if trace {
				if v := r.Metrics["bench.trace_overhead_pct"].Value; v < 0 {
					t.Errorf("%s: trace overhead %v is negative", w.Name, v)
				}
				if _, err := os.Stat(cfg.TraceOut); err != nil {
					t.Errorf("%s: traced run wrote no trace: %v", w.Name, err)
				}
			}
		}
	}
}

// A flipped byte per KiB of SSTable must make the command exit non-zero, through
// a failed read or the audit. (Not on write-sustained: its compactions may
// rewrite the tables from clean cached blocks before anything reads the
// flipped bytes, which makes the flip harmless, not undetected.)
func TestFlippedTableByteFailsTheRun(t *testing.T) {
	for _, name := range []string{"read-zipf", "scan-short"} {
		w, _ := findWorkload(name)
		cfg := smokeConfig(t, w, false)
		cfg.corruptAfterSetup = true
		var out, errOut bytes.Buffer
		if code := execute(cfg, &out, &errOut); code == 0 {
			t.Errorf("%s: exit 0 with corrupted tables; stdout: %s", name, out.String())
		}
	}
}

// BENCHMARK.json and the program's tables must list the same workloads and
// the same metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed, generated interface{}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(benchmarkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, generated) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	if len(endToEnd) != 9 || len(workloads) != 4 {
		t.Errorf("%d end-to-end metrics and %d workloads, want 9 and 4", len(endToEnd), len(workloads))
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
