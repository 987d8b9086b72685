package bloom

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func keys(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 8)
		binary.BigEndian.PutUint64(out[i], uint64(i)*2654435761)
	}
	return out
}

func TestNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 10, 100, 5000} {
		ks := keys(n)
		f := Build(ks, 10)
		for i, k := range ks {
			if !f.MayContain(k) {
				t.Fatalf("n=%d: false negative for key %d", n, i)
			}
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	rate := estimateFalsePositiveRate(10000, 10000, 10)
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f too high for 10 bits/key", rate)
	}
	if rate == 0 {
		t.Log("zero observed false positives (acceptable but unusual)")
	}
}

func TestMoreBitsLowerRate(t *testing.T) {
	loose := estimateFalsePositiveRate(20000, 20000, 4)
	tight := estimateFalsePositiveRate(20000, 20000, 16)
	if tight >= loose {
		t.Fatalf("16 bits/key rate %.4f not below 4 bits/key rate %.4f", tight, loose)
	}
}

func TestEmptyAndTinyFilters(t *testing.T) {
	f := Build(nil, 10)
	if f.MayContain([]byte("anything")) {
		// An empty filter may or may not match; it must not panic. A
		// match here is a false positive, which is allowed but with 64
		// zero bits it should not occur.
		t.Fatal("empty filter matched")
	}
	var nilFilter Filter
	if nilFilter.MayContain([]byte("x")) {
		t.Fatal("nil filter matched")
	}
}

func TestQuickMembership(t *testing.T) {
	f := func(items [][]byte, probe []byte) bool {
		filter := Build(items, 12)
		for _, it := range items {
			if !filter.MayContain(it) {
				return false
			}
		}
		_ = filter.MayContain(probe) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptProbeCountIsSafe(t *testing.T) {
	f := Build(keys(100), 10)
	f[len(f)-1] = 200 // invalid k
	if !f.MayContain(keys(1)[0]) {
		t.Fatal("corrupt filter must fail open (return maybe)")
	}
}

// estimateFalsePositiveRate empirically measures the false-positive rate of
// a filter built over n synthetic keys, probing with m absent keys.
func estimateFalsePositiveRate(n, m, bitsPerKey int) float64 {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 8)
		binary.BigEndian.PutUint64(keys[i], uint64(i))
	}
	f := Build(keys, bitsPerKey)
	hits := 0
	probe := make([]byte, 8)
	for i := 0; i < m; i++ {
		binary.BigEndian.PutUint64(probe, uint64(n+i))
		if f.MayContain(probe) {
			hits++
		}
	}
	return float64(hits) / float64(m)
}

// TestAppendEqualsBuild appends filters behind a prefix into a buffer whose
// spare capacity holds a larger filter's bits: the appended bytes must be
// Build's and the prefix untouched.
func TestAppendEqualsBuild(t *testing.T) {
	prefix := []byte("filter block")
	dirty := Append(append([]byte(nil), prefix...), keys(5000), 16)
	for _, n := range []int{0, 1, 7, 100, 5000} {
		for _, bits := range []int{0, 4, 10, 16} {
			want := Build(keys(n), bits)
			got := Append(dirty[:len(prefix)], keys(n), bits)
			if string(got[:len(prefix)]) != string(prefix) || string(got[len(prefix):]) != string(want) {
				t.Fatalf("n=%d bits=%d: Append differs from Build", n, bits)
			}
		}
	}
}

// TestNewAddEqualsBuild: a filter built one key at a time is byte for byte
// the one Build gives the whole list.
func TestNewAddEqualsBuild(t *testing.T) {
	for _, n := range []int{0, 1, 10, 5000} {
		for _, bits := range []int{0, DefaultBitsPerKey, 16} {
			f := New(n, bits)
			for _, k := range keys(n) {
				f.Add(k)
			}
			if want := Build(keys(n), bits); string(f) != string(want) {
				t.Fatalf("n=%d bits=%d: New+Add differs from Build", n, bits)
			}
		}
	}
}
