package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"elsm/internal/kvtest/model"
	"elsm/internal/lsm"
	"elsm/internal/record"
)

// TestPinnedFramesUnderChurn runs four readers — verified Gets, and 50-row
// verified Scans — beside a writer that keeps flushing and compacting, so
// runs retire and their files drop out of the block cache under the
// readers. The cache holds about eight blocks, so nearly every read misses
// and evicts: misses read into frames other blocks just left free, while
// other readers may still be looking at blocks being evicted (a scan chunk
// pins dozens). Every read asks at a timestamp the writer has published and
// must equal the sequential model there, no read may fail verification, and
// once the store is quiet no frame is left pinned. Under -race this is also
// the check that no frame is reused while a reader views it.
func TestPinnedFramesUnderChurn(t *testing.T) {
	cfg := smallCfg(nil)
	cfg.CacheSize = 8 * cfg.BlockSize
	s := mustOpenP2(t, cfg)
	defer s.Close()

	var (
		mu     sync.Mutex
		m      model.Model
		lastTs atomic.Uint64
		done   atomic.Bool
	)
	key := func(i int) string { return fmt.Sprintf("key%03d", i) }
	write := func(rng *rand.Rand, n int) {
		rec := record.Record{Key: []byte(key(rng.Intn(200))), Kind: record.KindDelete}
		if rng.Intn(6) != 0 {
			rec.Kind, rec.Value = record.KindSet, []byte(fmt.Sprintf("v%d-%s", n, rec.Key))
		}
		ts, err := s.Commit(nil, []BatchOp{{Key: rec.Key, Value: rec.Value, Delete: rec.Kind == record.KindDelete}})
		if err != nil {
			t.Error(err)
			return
		}
		rec.Ts = ts
		mu.Lock()
		m.Put(rec)
		mu.Unlock()
		lastTs.Store(ts)
	}
	wrng := rand.New(rand.NewSource(1))
	for n := 0; n < 400; n++ {
		write(wrng, n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for n := 400; !done.Load(); n++ {
			write(wrng, n)
			if n%60 == 0 {
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for op := 0; op < 300; op++ {
				tsq := lastTs.Load()
				if rng.Intn(5) == 0 {
					lo := rng.Intn(200)
					start, end := []byte(key(lo)), []byte(key(lo+49))
					got, err := ScanAll(s.IterAt(nil, start, end, tsq))
					if err != nil {
						t.Errorf("reader %d: Scan at %d: %v", r, tsq, err)
						return
					}
					mu.Lock()
					want := modelScan(&m, string(start), string(end), tsq)
					mu.Unlock()
					if err := sameResults(got, want); err != nil {
						t.Errorf("reader %d: Scan(%q, %q) at %d: %v", r, start, end, tsq, err)
						return
					}
					continue
				}
				k := key(rng.Intn(210)) // a few keys nobody writes
				res, err := s.GetAt(nil, []byte(k), tsq)
				if err != nil {
					t.Errorf("reader %d: Get(%s) at %d: %v", r, k, tsq, err)
					return
				}
				mu.Lock()
				want, found := m.Get([]byte(k), tsq)
				mu.Unlock()
				found = found && want.Kind == record.KindSet
				if res.Found != found || (found && (!bytes.Equal(res.Value, want.Value) || res.Ts != want.Ts)) {
					t.Errorf("reader %d: Get(%s) at %d = %q@%d (found %v), want %q@%d (found %v)",
						r, k, tsq, res.Value, res.Ts, res.Found, want.Value, want.Ts, found)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	done.Store(true)
	wg.Wait()
	if err := s.Engine().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	st := s.Engine().Stats()
	cache := s.Engine().BlockCache().Stats()
	t.Logf("%d compactions; block cache: %d hits, %d misses, %d into recycled frames",
		st.Compactions, cache.Hits, cache.Misses, cache.Recycled)
	if cache.Pinned != 0 {
		t.Errorf("%d frames still pinned on a quiet store", cache.Pinned)
	}
	if st.Compactions == 0 || cache.Recycled == 0 {
		t.Errorf("the test churned nothing: %d compactions, %d recycled frames", st.Compactions, cache.Recycled)
	}
}

// TestGetCopiesBeforeItVerifies plays the host that rewrites the blocks a
// Get's lookup viewed — the values and the stored proof bytes of every
// witness — at the two moments that matter: between the lookup and the
// enclave's copy, where the Get must fail verification (ErrForged) or, if
// nothing it read from a run was touched, return the genuine value, never
// the rewritten one; and right after the copy, where it must return the
// genuine value, having compared, hashed and returned only its copy.
func TestGetCopiesBeforeItVerifies(t *testing.T) {
	cfg := scanCfg(nil)
	cfg.CacheSize = 1 << 20
	s := mustOpenP2(t, cfg)
	defer s.Close()
	m, _ := randomStore(t, s, rand.New(rand.NewSource(3)), 4)
	rewritten := []byte("rewritten by the host")

	for _, copied := range []bool{false, true} {
		t.Run(fmt.Sprintf("copied=%v", copied), func(t *testing.T) {
			var restore [][2][]byte // the rewritten bytes, and what they were
			s.getTamper = func(v *lsm.RunViews, after bool) {
				if after != copied {
					return
				}
				for _, w := range []*record.Record{&v.Rec.Rec, &v.Pred.Rec, &v.Succ.Rec} {
					for _, b := range [][]byte{w.Value, w.Proof} {
						restore = append(restore, [2][]byte{b, bytes.Clone(b)})
						for i := range b {
							b[i] = rewritten[i%len(rewritten)]
						}
					}
				}
			}
			forged := 0
			for i := 0; i < 86; i++ {
				k := fmt.Sprintf("key%03d", i)
				res, err := Get(s, []byte(k))
				for _, r := range restore {
					copy(r[0], r[1])
				}
				tampered := len(restore) > 0
				restore = restore[:0]
				want := modelScan(m, k, k, record.MaxTs)
				switch {
				case err != nil && (copied || !errors.Is(err, ErrForged) || !tampered):
					t.Fatalf("Get(%s): %v", k, err)
				case err != nil:
					forged++
				case res.Found != (len(want) == 1):
					t.Fatalf("Get(%s) found %v, want %v", k, res.Found, len(want) == 1)
				case res.Found && (!bytes.Equal(res.Value, want[0].Value) || res.Ts != want[0].Ts):
					t.Fatalf("Get(%s) = %q@%d, want %q@%d", k, res.Value, res.Ts, want[0].Value, want[0].Ts)
				}
			}
			if !copied && forged == 0 {
				t.Fatal("no rewrite before the copy was caught")
			}
			// The blocks are whole again: every Get verifies.
			s.getTamper = nil
			for i := 0; i < 86; i++ {
				if _, err := Get(s, []byte(fmt.Sprintf("key%03d", i))); err != nil {
					t.Fatalf("after the test: %v", err)
				}
			}
		})
	}
}

// TestGetHoldsTheBlocksItViews runs other Gets — enough to turn a tiny block
// cache over several times — between a Get's lookup and its copy. The blocks
// the lookup viewed are evicted meanwhile, and their frames would be the
// first a miss reuses, but they are pinned: every Get, outer and nested,
// returns the genuine value.
func TestGetHoldsTheBlocksItViews(t *testing.T) {
	cfg := scanCfg(nil)
	cfg.CacheSize = 4 * cfg.BlockSize
	s := mustOpenP2(t, cfg)
	defer s.Close()
	m, _ := randomStore(t, s, rand.New(rand.NewSource(4)), 4)
	check := func(k string) {
		t.Helper()
		s.emptyRecordCache() // every Get proves, and so views its blocks
		res, err := Get(s, []byte(k))
		want := modelScan(m, k, k, record.MaxTs)
		if err != nil || res.Found != (len(want) == 1) || (res.Found && !bytes.Equal(res.Value, want[0].Value)) {
			t.Fatalf("Get(%s) = %q (found %v), %v; want %v", k, res.Value, res.Found, err, want)
		}
	}
	nested := false
	s.getTamper = func(_ *lsm.RunViews, copied bool) {
		if copied || nested {
			return
		}
		nested = true
		for i := 79; i >= 0; i -= 3 {
			check(fmt.Sprintf("key%03d", i))
		}
		nested = false
	}
	for i := 0; i < 80; i += 7 {
		check(fmt.Sprintf("key%03d", i))
	}
	if st := s.Engine().BlockCache().Stats(); st.Recycled == 0 || st.Pinned != 0 {
		t.Fatalf("block cache %+v: want frames recycled, and none pinned once quiet", st)
	}
}
