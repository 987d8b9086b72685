package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPropertyRandomOpsMatchModel drives a long random operation sequence
// (puts, deletes, point reads at random historical timestamps, range
// scans, explicit flush/compact) against the verified store and the model,
// through the hostile-host runner with no lie told, checking exact agreement
// everywhere. KeepVersions=0 so full history (and hence the hash-chain
// machinery) is exercised.
func TestPropertyRandomOpsMatchModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			var script []step
			for i := 0; i < 2500; i++ {
				switch op := rnd.Intn(100); {
				case op < 52: // a put, or a delete
					script = append(script, batch(rnd.Intn(120), 1, 1, rnd.Intn(7)/6))
				case op < 75:
					script = append(script, reads(rnd.Intn(120), 1))
				case op < 88:
					script = append(script, get(rnd.Intn(120), 1, 1+rnd.Intn(1000), false))
				case op < 94:
					script = append(script, scan(rnd.Intn(110), rnd.Intn(15), 0))
				case op < 97:
					script = append(script, flush)
				default:
					script = append(script, compact(1+rnd.Intn(3)))
				}
			}
			newHostRun(t, false, nil).run(script)
		})
	}
}

// TestConcurrentVerifiedReadsDuringWrites hammers verified GETs from
// several goroutines while a writer churns keys through flushes and
// compactions; every read must either verify or be a correct not-found —
// never an authentication error (the engine + digest snapshotting must
// stay consistent under concurrency, §5.5.2 "Multi-threading").
func TestConcurrentVerifiedReadsDuringWrites(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	// Pre-populate so reads hit disk runs immediately.
	for i := 0; i < 500; i++ {
		Put(s, []byte(fmt.Sprintf("key%03d", i%120)), []byte("seed"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 4000; i++ {
			if _, err := Put(s, []byte(fmt.Sprintf("key%03d", i%120)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := []byte(fmt.Sprintf("key%03d", rnd.Intn(120)))
				if _, err := Get(s, key); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDigestForestMatchesRuns checks the internal invariant that the
// trusted digest map always covers exactly the engine's live runs.
func TestDigestForestMatchesRuns(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	for i := 0; i < 3000; i++ {
		Put(s, []byte(fmt.Sprintf("key%04d", i%600)), []byte(fmt.Sprintf("v%d", i)))
		if i%500 == 0 {
			runs := s.Engine().Runs()
			digs := s.RunDigests()
			if len(runs) != len(digs) {
				t.Fatalf("at op %d: %d runs vs %d digests", i, len(runs), len(digs))
			}
			for _, r := range runs {
				if _, ok := digs[r.ID]; !ok {
					t.Fatalf("run %d has no trusted digest", r.ID)
				}
			}
		}
	}
}

// TestEmptyStoreOps verifies degenerate inputs.
func TestEmptyStoreOps(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	if res, err := Get(s, []byte("nothing")); err != nil || res.Found {
		t.Fatalf("empty get: %+v err=%v", res, err)
	}
	if out, err := Scan(s, []byte("a"), []byte("z")); err != nil || len(out) != 0 {
		t.Fatalf("empty scan: %d err=%v", len(out), err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
	if res, err := s.GetAt(nil, []byte("k"), 0); err != nil || res.Found {
		t.Fatalf("tsq=0 get: %+v err=%v", res, err)
	}
	// Empty key and empty value are legal.
	if _, err := Put(s, []byte{}, []byte{}); err != nil {
		t.Fatalf("empty key/value put: %v", err)
	}
	res, err := Get(s, []byte{})
	if err != nil || !res.Found {
		t.Fatalf("empty key get: %+v err=%v", res, err)
	}
}

// TestLargeValuesAcrossBlocks exercises records larger than a block.
func TestLargeValuesAcrossBlocks(t *testing.T) {
	cfg := smallCfg(nil) // BlockSize 512
	s := mustOpenP2(t, cfg)
	defer s.Close()
	big := bytes.Repeat([]byte("x"), 3000) // 6x block size
	for i := 0; i < 30; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("big%02d", i)), big); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		res, err := Get(s, []byte(fmt.Sprintf("big%02d", i)))
		if err != nil || !res.Found || len(res.Value) != 3000 {
			t.Fatalf("big value %d: len=%d err=%v", i, len(res.Value), err)
		}
	}
}
