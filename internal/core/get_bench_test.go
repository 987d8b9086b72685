package core

import (
	"fmt"
	"math/rand"
	"testing"

	"elsm/internal/merkle"
	"elsm/internal/vfs"
)

// BenchmarkVerifiedGet times the verified point read (§5.3) on a two-run
// store — odd keys in the upper run, even keys in the lower, so half the
// present keys cost a non-membership proof before their membership proof —
// and reports the interior Merkle hashes a Get computes beside its time and
// allocations:
//
//   - cold: every Get starts from an empty verified-node cache;
//   - warm-zipf, warm-uniform: present keys after a warm-up pass;
//   - absent-key: uniform keys that no run holds (four witnesses per Get).
func BenchmarkVerifiedGet(b *testing.B) {
	const n = 25000 // per run
	s := twoRunStore(b, n)
	defer s.Close()
	present := twoRunKey
	absent := func(i int) []byte { return append(twoRunKey(i), '~') }
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 2*n-1)
	uniform := func() int { return rng.Intn(2 * n) }
	skewed := func() int { return int(zipf.Uint64()) * 7919 % (2 * n) } // hot keys spread over the leaves

	cases := []struct {
		name string
		cold bool
		key  func(int) []byte
		next func() int
	}{
		{"cold", true, present, uniform},
		{"warm-zipf", false, present, skewed},
		{"warm-uniform", false, present, uniform},
		{"absent-key", false, absent, uniform},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			keys := make([][]byte, 1<<14)
			for i := range keys {
				keys[i] = tc.key(tc.next())
			}
			s.verify.nodes = merkle.NewNodeCache()
			if !tc.cold {
				for pass := 0; pass < 4; pass++ {
					for _, k := range keys {
						if _, err := Get(s, k); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			before := s.VerifyStatsSnapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.cold {
					b.StopTimer()
					s.verify.nodes = merkle.NewNodeCache()
					b.StartTimer()
				}
				if _, err := Get(s, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			after := s.VerifyStatsSnapshot()
			b.ReportMetric(float64(after.NodeHashes-before.NodeHashes)/float64(b.N), "hashes/op")
		})
	}
}

// TestVerifiedGetAllocationGuard pins the allocation cost of a warm verified
// Get at its worst present-key shape — two witnesses refuting the upper run,
// one proving the lower — so a change that brings back a whole-block decode,
// a materialized proof or a per-field record copy trips it.
func TestVerifiedGetAllocationGuard(t *testing.T) {
	s := twoRunStore(t, 2000)
	defer s.Close()
	key := twoRunKey(1000) // even: lives in the lower run
	get := func() {
		if res, err := Get(s, key); err != nil || !res.Found {
			t.Errorf("Get = %+v, %v", res, err)
		}
	}
	get()
	if allocs := testing.AllocsPerRun(100, get); allocs > 24 {
		t.Fatalf("a warm verified Get allocates %.0f times, want ≤ 24", allocs)
	} else {
		t.Logf("a warm verified Get allocates %.0f times", allocs)
	}
}

// scanBenchStore returns a P2 store of four runs shaped like a leveled tree:
// the bottom run holds every one of n keys, and each run above holds a newer
// version of every tenth key of the run below it. cache is the block-cache
// size (0: every block request is a file read).
func scanBenchStore(tb testing.TB, n, cache int) *Store {
	tb.Helper()
	return scanBenchStoreOn(tb, vfs.NewMem(), n, cache)
}

func scanBenchStoreOn(tb testing.TB, fs vfs.FS, n, cache int) *Store {
	tb.Helper()
	s, err := Open(Config{FS: fs, MemtableSize: 64 << 20, DisableCompaction: true, CacheSize: cache})
	if err != nil {
		tb.Fatal(err)
	}
	value := make([]byte, 100)
	for step := 1; step <= 1000; step *= 10 {
		ops := make([]BatchOp, 0, 512)
		for i := 0; i < n; i += step {
			ops = append(ops, BatchOp{Key: twoRunKey(i), Value: value})
			if len(ops) == cap(ops) || i+step >= n {
				if _, err := s.Commit(nil, ops); err != nil {
					tb.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		if err := s.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	if got := len(s.Engine().Runs()); got != 4 {
		tb.Fatalf("set-up left %d runs, want 4", got)
	}
	return s
}

// BenchmarkVerifiedScan times the verified range read (§5.4) on a four-run
// store, 50 rows (one chunk) and 5 000 rows (ten chunks), from uniform starts
// with no block cache, and reports what a Scan costs in counted work beside
// its time and allocations: interior Merkle node hashes, proof bytes copied
// into the enclave, blocks requested, and rows copied per row returned. The
// last is 1 plus the share of superseded versions plus one successor per run
// per chunk — a run never reads past the chunk's end to find out it had
// nothing more to give. It fails if a chunk copies more than four proofs per
// run.
func BenchmarkVerifiedScan(b *testing.B) {
	const n = 40000
	ffs := vfs.NewFault(vfs.NewMem())
	s := scanBenchStoreOn(b, ffs, n, 0)
	defer s.Close()
	ffs.ArmFilter(vfs.OpReadAt, "*.sst")
	var rowsCopied, spans int
	maxProof := proofSize(0, 64)
	s.scanTamper = func(sp *runSpan) { // a tally, not a tamper
		spans++
		rowsCopied += len(sp.rows)
		if sp.pred != nil {
			rowsCopied++
		}
		if sp.succ != nil {
			rowsCopied++
		}
	}
	for _, rows := range []int{50, 5000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			starts := make([]int, 1<<10)
			for i := range starts {
				starts[i] = rng.Intn(n - rows)
			}
			scan := func(i int) {
				at := starts[i%len(starts)]
				out, err := Scan(s, twoRunKey(at), twoRunKey(at+rows-1))
				if err != nil || len(out) != rows {
					b.Fatalf("Scan = %d rows, %v", len(out), err)
				}
			}
			scan(0)
			before, reads := s.VerifyStatsSnapshot(), ffs.MatchingOps()
			rowsCopied, spans = 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan(i)
			}
			b.StopTimer()
			after := s.VerifyStatsSnapshot()
			ops := float64(b.N)
			b.ReportMetric(float64(after.NodeHashes-before.NodeHashes)/ops, "node-hashes/op")
			b.ReportMetric(float64(after.ProofBytes-before.ProofBytes)/ops, "proof-bytes-copied/op")
			b.ReportMetric(float64(ffs.MatchingOps()-reads)/ops, "blocks-read/op")
			b.ReportMetric(float64(rowsCopied)/ops/float64(rows), "rows-copied/row-returned")
			if got, limit := after.ProofBytes-before.ProofBytes, uint64(spans*4*maxProof); got > limit {
				b.Fatalf("%d proof bytes copied for %d run spans: more than four proofs a span", got, spans)
			}
		})
	}
}
