package obs

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestBucketLayout checks the bucket map is monotone, total, and
// consistent with its inverse across the whole range.
func TestBucketLayout(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	prev := -1
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 31, 32, 1000, 1 << 20, 1 << 40, 1 << 62, math.MaxUint64} {
		b := bucketOf(v)
		if b < 0 || b >= NumBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
		if lo := bucketLow(b); lo > v {
			t.Fatalf("bucketLow(%d) = %d > value %d", b, lo, v)
		}
		if b+1 < NumBuckets {
			if hi := bucketLow(b + 1); v >= hi {
				t.Fatalf("value %d ≥ next bucket low %d (bucket %d)", v, hi, b)
			}
		}
	}
	// Exhaustive inverse check: every bucket's low maps back to itself.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketOf(bucketLow(i)); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d", i, got)
		}
	}
}

// TestQuantileAccuracy: the log-bucket quantile estimate must land
// within one sub-bucket width (~12.5%) of the true quantile on a
// uniform sample.
func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Int63n(10_000_000)) // 0..10ms in nanos
		h.Observe(vals[i])
	}
	snap := h.Snapshot()
	if snap.Count != n {
		t.Fatalf("count = %d, want %d", snap.Count, n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		est := float64(snap.Quantile(q))
		exact := q * 10_000_000
		if rel := math.Abs(est-exact) / exact; rel > 0.15 {
			t.Errorf("q%g: estimate %.0f vs exact %.0f (rel err %.3f)", q, est, exact, rel)
		}
	}
	if mean := snap.Mean(); math.Abs(mean-5_000_000)/5_000_000 > 0.02 {
		t.Errorf("mean %.0f, want ≈5e6", mean)
	}
}

// TestMerge: merged snapshots equal observing into one histogram.
func TestMerge(t *testing.T) {
	var a, b, both Histogram
	for i := uint64(0); i < 1000; i++ {
		a.Observe(i * 17)
		both.Observe(i * 17)
		b.Observe(i * 31)
		both.Observe(i * 31)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	want := both.Snapshot()
	if sa != want {
		t.Fatal("merged snapshot differs from combined histogram")
	}
}

// TestNilSafety: nil receivers must be no-ops, not panics — the
// compiled-out no-op recorder depends on it.
func TestNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	h.ObserveDuration(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var r *Recorder
	r.Event(EventFailStop, "x")
	r.Record(Trace{}, true)
	if r.ShouldTrace() {
		t.Fatal("nil recorder sampled")
	}
	if r.Hists() != nil {
		t.Fatal("nil recorder enumerated histograms")
	}
	var o *Observer
	o.Event(EventFailStop, 0, "x")
	o.BusyShed("x")
	o.Record(Trace{}, true)
	if o.Traces() != nil || o.Events() != nil || o.SlowOps() != nil {
		t.Fatal("nil observer returned entries")
	}
}

// TestZeroDurationObserve: durations at or below zero land in bucket 0.
func TestZeroDurationObserve(t *testing.T) {
	var h Histogram
	h.ObserveDuration(-time.Second)
	h.ObserveDuration(0)
	s := h.Snapshot()
	if s.Count != 2 || s.Buckets[0] != 2 {
		t.Fatalf("count=%d bucket0=%d, want 2/2", s.Count, s.Buckets[0])
	}
}

// TestCountIsTheBucketSum: a snapshot's Count is the sum of its buckets,
// also while observers run beside it, and it counts every observation once
// they are done.
func TestCountIsTheBucketSum(t *testing.T) {
	var h Histogram
	const writers, each = 4, 20000
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				h.Observe(uint64(w*each + i))
			}
		}(w)
	}
	check := func() HistSnapshot {
		s := h.Snapshot()
		var sum uint64
		for _, b := range s.Buckets {
			sum += b
		}
		if s.Count != sum {
			t.Fatalf("Count = %d, buckets sum to %d", s.Count, sum)
		}
		return s
	}
	for running := writers; running > 0; {
		select {
		case <-done:
			running--
		default:
			check()
		}
	}
	if s := check(); s.Count != writers*each {
		t.Fatalf("Count = %d after %d observations", s.Count, writers*each)
	}
}
