package core

import (
	"math/rand"
	"testing"

	"elsm/internal/merkle"
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
						if _, err := s.Get(k); err != nil {
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
				if _, err := s.Get(keys[i%len(keys)]); err != nil {
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
		if res, err := s.Get(key); err != nil || !res.Found {
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
