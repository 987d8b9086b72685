package main

import (
	"math"
	"sort"
)

// quantile is the exact nearest-rank quantile of sorted samples: the
// smallest sample with at least q of the samples at or below it. The
// benchmark never reads a quantile off obs.Histogram, whose 1/8-octave
// buckets step 9-12 %.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sameWork is how closely the bytes two trials wrote over a step must agree
// for the step to count as the same work in both.
const sameWork = 0.05

// alignSteps groups consecutive slices into steps: the shortest runs of
// slices over which every trial wrote the same number of bytes to disk.
// It returns each step's end index (exclusive). Where nothing is written
// every slice is its own step; so is every slice of a write workload as
// long as the trials agree. But background compaction fires on size
// thresholds, and a few records' difference in how two writers interleaved
// can move a whole bottom-level rewrite from slice k to slice k+1 in one
// trial; taking the minimum of each slice separately would then skip that
// rewrite altogether (measured: throughput read 14 % high in 2 runs of 10).
func alignSteps(written [][]float64) []int {
	if len(written) == 0 {
		return nil
	}
	var ends []int
	cum := make([]float64, len(written))
	n := len(written[0])
	for k := 0; k < n; k++ {
		for t := range written {
			cum[t] += written[t][k]
		}
		mid, agree := median(cum), true
		for _, c := range cum {
			if math.Abs(c-mid) > sameWork*mid {
				agree = false
			}
		}
		if agree || k == n-1 {
			ends = append(ends, k+1)
			for t := range cum {
				cum[t] = 0
			}
		}
	}
	return ends
}

// stepMinima is the estimator's one rule: a step is the same work in every
// trial, so its time is the least any trial needed for it. Interference on
// a shared box only ever adds time, and comes in bursts longer than a step
// but shorter than a trial. ends are the steps' boundaries from alignSteps;
// nil makes every slice its own step.
func stepMinima(perTrial [][]float64, ends []int) []float64 {
	if len(perTrial) == 0 {
		return nil
	}
	if ends == nil {
		ends = everySlice(len(perTrial[0]))
	}
	out := make([]float64, 0, len(ends))
	start := 0
	for _, end := range ends {
		best := math.Inf(1)
		for _, tr := range perTrial {
			best = math.Min(best, sum(tr[start:end]))
		}
		out = append(out, best)
		start = end
	}
	return out
}

// everySlice is the step boundaries that make each of n slices a step.
func everySlice(n int) []int {
	ends := make([]int, n)
	for k := range ends {
		ends[k] = k + 1
	}
	return ends
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// disturbedPct is the share of steps whose median over trials exceeds
// their minimum by more than 15 %: how noisy the box was during the run.
func disturbedPct(perTrial [][]float64, ends []int) float64 {
	mins := stepMinima(perTrial, ends)
	if len(mins) == 0 {
		return 0
	}
	if ends == nil {
		ends = everySlice(len(mins))
	}
	col := make([]float64, len(perTrial))
	bad, start := 0, 0
	for k, lo := range mins {
		for t := range perTrial {
			col[t] = sum(perTrial[t][start:ends[k]])
		}
		if median(col) > lo*(1+disturbed) {
			bad++
		}
		start = ends[k]
	}
	return 100 * float64(bad) / float64(len(mins))
}

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// method the driver judges spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// span is one timed interval recorded by the benchmark around a call it
// makes. Spans of one client operation share Op; Parent is 0 for the
// operation's own span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes charges every span its duration minus the part of it that its
// child spans cover, and returns the total per span name.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}
