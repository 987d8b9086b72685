// Package obs is the store's observability subsystem: lock-free
// log-bucket latency histograms cheap enough to leave on in production,
// a sampled trace recorder for the commit pipeline, a slow-op log that
// captures the stage breakdown of outliers, and a bounded structured
// event log for the faults that used to be silent (fail-stops, fenced
// frames, re-bootstraps, promotions, BUSY sheds, torn-tail recoveries).
//
// The design splits along the hot/cold boundary:
//
//   - Histogram is the hot-path primitive: a fixed array of atomic
//     buckets on a log scale (8 sub-buckets per octave, ~12% relative
//     error). Observe is one atomic add and one atomic increment, no
//     allocation, no lock (the count is the buckets' sum, taken when a
//     snapshot is); nil receivers are no-ops so an uninstrumented
//     store pays only a pointer test.
//   - Recorder bundles one shard's named histograms; Observer holds the
//     cross-shard state (trace ring, slow-op ring, event ring, the
//     network-service histogram). Rings are mutex-guarded — they are off
//     the per-op path: traces are built per commit GROUP and only when
//     sampled or slow, events only on faults.
//
// Quantiles are estimated from bucket midpoints when a snapshot is
// rendered (STATS pairs, /metrics); nothing on the write side ever
// sorts. Snapshots from different shards Merge exactly — buckets add —
// so the store-wide percentile is computed from the summed buckets, not
// approximated from per-shard percentiles.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: values 0..7 get exact buckets; every later octave
// [2^k, 2^(k+1)) splits into 8 sub-buckets, giving ≤ 1/8 relative bucket
// width across the full uint64 range. 496 buckets cover it; the array is
// fixed so a Histogram is one allocation-free 4 KB value.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // sub-buckets per octave
	// NumBuckets is the bucket count: 8 exact low buckets plus 61 octaves
	// (top bit positions 3..63) of 8 sub-buckets each.
	NumBuckets = histSub + 61*histSub
)

// bucketOf maps a value to its bucket index (monotone in v).
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	o := bits.Len64(v) - 1 // position of the top bit, ≥ 3
	sub := (v >> (uint(o) - histSubBits)) & (histSub - 1)
	return (o-histSubBits)*histSub + int(sub) + histSub
}

// bucketLow returns the smallest value mapping to bucket i.
func bucketLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	g := i>>histSubBits - 1 // octave group 0.. (top bit position g+3)
	sub := uint64(i & (histSub - 1))
	return (histSub + sub) << uint(g)
}

// bucketMid returns the midpoint of bucket i, the quantile estimate for
// ranks landing in it.
func bucketMid(i int) uint64 {
	lo := bucketLow(i)
	var hi uint64
	if i+1 < NumBuckets {
		hi = bucketLow(i + 1)
	} else {
		hi = lo + lo/histSub
	}
	return lo + (hi-lo)/2
}

// Histogram is a lock-free fixed-allocation log-bucket histogram. The
// zero value is ready to use; a nil *Histogram ignores observations.
// All methods are safe for concurrent use.
type Histogram struct {
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one value (for latency histograms, nanoseconds).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(uint64(time.Since(start)))
}

// ObserveDuration records d in nanoseconds (negative durations clamp
// to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snapshot copies the histogram's current state. The copy is not an
// atomic cut across buckets — concurrent observers may land between
// loads — but every read is atomic, so the snapshot is race-free and
// each bucket's value was current at some instant. Count is the sum of the
// buckets copied, so it always agrees with them.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable across
// shards (buckets add exactly).
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Merge folds o into s (bucket-wise addition); the merged snapshot's
// quantiles are exact with respect to the union of observations, up to
// bucket resolution.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) as the midpoint of the
// bucket holding the rank. Returns 0 on an empty snapshot.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen > rank {
			return bucketMid(i)
		}
	}
	return bucketMid(NumBuckets - 1)
}

// Mean returns the exact mean of the observed values (sum/count), 0 when
// empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
