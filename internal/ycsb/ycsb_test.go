package ycsb

import (
	"bytes"
	"testing"

	"context"
	"elsm/internal/core"
	"elsm/internal/record"
)

func TestKeyShape(t *testing.T) {
	k := Key(42)
	if len(k) != DefaultKeySize {
		t.Fatalf("key length %d, want %d", len(k), DefaultKeySize)
	}
	if !bytes.HasPrefix(k, []byte("user")) {
		t.Fatalf("key %q", k)
	}
	if bytes.Equal(Key(1), Key(2)) {
		t.Fatal("keys collide")
	}
}

func TestValueDeterministic(t *testing.T) {
	if !bytes.Equal(Value(7, 100), Value(7, 100)) {
		t.Fatal("value not deterministic")
	}
	if bytes.Equal(Value(7, 100), Value(8, 100)) {
		t.Fatal("distinct indices give equal values")
	}
	if len(Value(1, 321)) != 321 {
		t.Fatal("wrong value size")
	}
}

func TestUniformCoverage(t *testing.T) {
	c := NewKeyChooser(Uniform, 100, 1)
	seen := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		v := c.Next()
		if v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v]++
	}
	if len(seen) < 95 {
		t.Fatalf("uniform covered only %d/100 keys", len(seen))
	}
	for k, n := range seen {
		if n < 50 || n > 400 {
			t.Fatalf("key %d drawn %d times (expected ~200)", k, n)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	c := NewKeyChooser(Zipfian, 10000, 1)
	counts := map[uint64]int{}
	for i := 0; i < 50000; i++ {
		v := c.Next()
		if v >= 10000 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	// Zipf(0.99): a small set of hot keys should dominate.
	hot := 0
	for _, n := range counts {
		if n > 500 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("no hot keys under zipfian")
	}
	if len(counts) > 9000 {
		t.Fatalf("zipfian touched %d distinct keys of 10000 — looks uniform", len(counts))
	}
}

func TestLatestSkewsRecent(t *testing.T) {
	c := NewKeyChooser(Latest, 1000, 1)
	recent := 0
	for i := 0; i < 10000; i++ {
		v := c.Next()
		if v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		if v >= 900 {
			recent++
		}
	}
	if recent < 5000 {
		t.Fatalf("only %d/10000 draws in newest decile", recent)
	}
	// Inserts shift the window.
	idx := c.NoteInsert()
	if idx != 1000 {
		t.Fatalf("insert index = %d", idx)
	}
}

func TestGenRecordsSortedUnique(t *testing.T) {
	recs := GenRecords(5000, 10)
	for i := 1; i < len(recs); i++ {
		if record.CompareRecords(recs[i-1], recs[i]) >= 0 {
			t.Fatalf("records not strictly sorted at %d", i)
		}
	}
}

func TestRecordsForBytes(t *testing.T) {
	n := RecordsForBytes(1 << 20)
	if n < 8000 || n > 10000 {
		t.Fatalf("1 MiB = %d records", n)
	}
	if RecordsForBytes(1) != 1 {
		t.Fatal("minimum is 1 record")
	}
}

func TestWorkloadMixes(t *testing.T) {
	for _, wl := range []Workload{WorkloadA(), WorkloadB(), WorkloadC(), WorkloadD(), WorkloadE(), WorkloadF()} {
		total := wl.ReadProp + wl.UpdateProp + wl.InsertProp + wl.ScanProp + wl.RMWProp
		if total < 0.999 || total > 1.001 {
			t.Fatalf("workload %s proportions sum to %f", wl.Name, total)
		}
	}
	m := Mix(70, Uniform)
	if m.ReadProp != 0.7 || m.UpdateProp < 0.299 || m.UpdateProp > 0.301 {
		t.Fatalf("mix = %+v", m)
	}
}

// mapKV is a trivial in-memory KV for runner tests.
type mapKV struct {
	m  map[string][]byte
	ts uint64
}

var _ DB = (*mapKV)(nil)

func newMapKV() *mapKV { return &mapKV{m: map[string][]byte{}} }

func (s *mapKV) Commit(_ context.Context, ops []core.BatchOp) (uint64, error) {
	for _, op := range ops {
		s.ts++
		if op.Delete {
			delete(s.m, string(op.Key))
		} else {
			s.m[string(op.Key)] = append([]byte(nil), op.Value...)
		}
	}
	return s.ts, nil
}
func (s *mapKV) GetAt(_ context.Context, k []byte, _ uint64) (core.Result, error) {
	v, ok := s.m[string(k)]
	return core.Result{Key: k, Value: v, Found: ok}, nil
}
func (s *mapKV) IterAt(ctx context.Context, start, end []byte, _ uint64) core.Iterator {
	var out []core.Result
	for k, v := range s.m {
		if k >= string(start) && k <= string(end) {
			out = append(out, core.Result{Key: []byte(k), Value: v, Found: true})
		}
	}
	return core.NewSliceIter(ctx, out, nil)
}

func TestRunnerExecutesMix(t *testing.T) {
	kv := newMapKV()
	if err := Load(kv, 200, 16); err != nil {
		t.Fatal(err)
	}
	if len(kv.m) != 200 {
		t.Fatalf("loaded %d", len(kv.m))
	}
	for _, wl := range []Workload{WorkloadA(), WorkloadD(), WorkloadE(), WorkloadF(), Mix(30, Uniform)} {
		r := NewRunner(kv, wl, 200, 7)
		st, err := r.RunOps(500)
		if err != nil {
			t.Fatalf("workload %s: %v", wl.Name, err)
		}
		if st.Ops != 500 || st.Errors != 0 {
			t.Fatalf("workload %s stats: %+v", wl.Name, st)
		}
		if st.Mean <= 0 || st.P99 < st.P50 {
			t.Fatalf("workload %s nonsense latencies: %+v", wl.Name, st)
		}
	}
}

func TestStatsString(t *testing.T) {
	st := Stats{Ops: 10}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
}
