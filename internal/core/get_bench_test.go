package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/merkle"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// BenchmarkVerifiedGet times the verified point read (§5.3) on a two-run
// store — odd keys in the upper run, even keys in the lower, so half the
// present keys pass the upper run, filtered out by its key filter or, for a
// false positive, with a non-membership proof — and reports the runs a Get
// proves, the runs it answers from the verified-record cache and the
// interior Merkle hashes it computes beside its time and allocations:
//
//   - cold: every Get starts from empty verified caches, nodes and records;
//   - warm-zipf, warm-uniform: present keys after a warm-up pass (16 384
//     draws: the hot keys of the zipf mix stay in the record cache, about
//     5 500 records of this size in 464 sets, while the uniform mix's
//     50 000 keys mostly fail its admission or evict each other);
//   - absent-key: uniform keys that no run holds, ruled out by both runs'
//     key filters but for about one run in a hundred, which then proves
//     the key's absence with two witnesses;
//   - parallel-zipf: the warm-zipf keys with one in ten replaced by an
//     absent key, read by GOMAXPROCS goroutines at once (b.RunParallel), so
//     at -cpu 2 and up it times what Gets on different cores cost each
//     other: the cache lines they both write.
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

	mixed := func(i int) []byte {
		if rng.Intn(10) == 0 {
			return absent(i)
		}
		return present(i)
	}

	cases := []struct {
		name     string
		cold     bool
		parallel bool
		key      func(int) []byte
		next     func() int
	}{
		{"cold", true, false, present, uniform},
		{"warm-zipf", false, false, present, skewed},
		{"warm-uniform", false, false, present, uniform},
		{"absent-key", false, false, absent, uniform},
		{"parallel-zipf", false, true, mixed, skewed},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			keys := make([][]byte, 1<<14)
			for i := range keys {
				keys[i] = tc.key(tc.next())
			}
			s.verify.nodes = merkle.NewNodeCache()
			s.emptyRecordCache()
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
			if tc.parallel {
				var next atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					i := int(next.Add(1)) * 7919 // each goroutine walks the keys from its own place
					for ; pb.Next(); i++ {
						if _, err := Get(s, keys[i%len(keys)]); err != nil {
							b.Error(err)
							return
						}
					}
				})
			}
			for i := 0; i < b.N && !tc.parallel; i++ {
				if tc.cold {
					b.StopTimer()
					s.verify.nodes = merkle.NewNodeCache()
					s.emptyRecordCache()
					b.StartTimer()
				}
				if _, err := Get(s, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			after := s.VerifyStatsSnapshot()
			b.ReportMetric(float64(after.RunsProbed-before.RunsProbed)/float64(b.N), "runs-proved/op")
			b.ReportMetric(float64(after.RunsCached-before.RunsCached)/float64(b.N), "runs-cached/op")
			b.ReportMetric(float64(after.VerifyNodeHashes-before.VerifyNodeHashes)/float64(b.N), "hashes/op")
		})
	}
}

// TestVerifiedGetAllocationGuard pins the allocation cost of a warm verified
// Get — every block in the cache, the scratch pooled — at exactly what its
// Result keeps: one allocation for a hit's key and value, none for an absent
// key. The upper run of a twoRunStore also gets a newer version of one even
// key, so the four shapes are: a hit in the upper run; a hit in the lower
// run, which the upper run's enclave filter skips (or, on a false positive
// about one time in a hundred, its non-membership proof refutes); an absent
// key, ruled out in both runs the same way; and a historical GetAt, refuted
// in the upper run by the newer version itself. A change that brings back a cloned witness, a per-Get snapshot or a
// second copy of the result trips it.
func TestVerifiedGetAllocationGuard(t *testing.T) {
	s := twoRunStoreOn(t, Config{FS: vfs.NewMem(), CacheSize: 8 << 20}, 2000, func(int) []byte { return make([]byte, 100) })
	defer s.Close()
	key := twoRunKey(1000) // even: lives in the lower run
	old, err := Get(s, key)
	if err != nil || !old.Found {
		t.Fatalf("Get = %+v, %v", old, err)
	}
	if _, err := Put(s, key, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// The flush left the newer version in a run of its own above the odd
	// keys' run. Move the even keys' run down a level, so that L1's two runs
	// then merge into one above it: two runs again, the upper one holding
	// the newer version.
	for _, lvl := range []int{2, 1} {
		if err := s.Compact(lvl); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		key   []byte
		tsq   uint64
		found bool
	}{
		{"upper-run hit", key, record.MaxTs, true},
		{"lower-run hit", twoRunKey(1002), record.MaxTs, true},
		{"absent key", append(twoRunKey(1000), '~'), record.MaxTs, false},
		{"historical GetAt", key, old.Ts, true},
	} {
		get := func() {
			if res, err := s.GetAt(nil, tc.key, tc.tsq); err != nil || res.Found != tc.found {
				t.Errorf("%s: GetAt = %+v, %v", tc.name, res, err)
			}
		}
		get()
		want := 0.0
		if tc.found {
			want = 1
		}
		if allocs := testing.AllocsPerRun(100, get); allocs != want {
			t.Errorf("a warm verified Get (%s) allocates %.0f times, want %.0f", tc.name, allocs, want)
		}
	}
	if runs := len(s.Engine().Runs()); runs != 2 {
		t.Fatalf("%d runs, want 2", runs)
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
	s, err := Open(Config{FS: fs, Geometry: lsm.Geometry{MemtableSize: 64 << 20}, DisableCompaction: true, CacheSize: cache})
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
			b.ReportMetric(float64(after.VerifyNodeHashes-before.VerifyNodeHashes)/ops, "node-hashes/op")
			b.ReportMetric(float64(after.ProofBytes-before.ProofBytes)/ops, "proof-bytes-copied/op")
			b.ReportMetric(float64(ffs.MatchingOps()-reads)/ops, "blocks-read/op")
			b.ReportMetric(float64(rowsCopied)/ops/float64(rows), "rows-copied/row-returned")
			if got, limit := after.ProofBytes-before.ProofBytes, uint64(spans*4*maxProof); got > limit {
				b.Fatalf("%d proof bytes copied for %d run spans: more than four proofs a span", got, spans)
			}
		})
	}
}
