package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"elsm/internal/record"
)

// refModel is the trusted reference: a versioned map.
type refModel struct {
	versions map[string][]refVersion
}

type refVersion struct {
	ts  uint64
	val []byte
	del bool
}

func newRefModel() *refModel { return &refModel{versions: map[string][]refVersion{}} }

func (m *refModel) put(key string, ts uint64, val []byte) {
	m.versions[key] = append(m.versions[key], refVersion{ts: ts, val: val})
}

func (m *refModel) del(key string, ts uint64) {
	m.versions[key] = append(m.versions[key], refVersion{ts: ts, del: true})
}

// getAt returns the newest version ≤ tsq.
func (m *refModel) getAt(key string, tsq uint64) ([]byte, bool) {
	vs := m.versions[key]
	var best *refVersion
	for i := range vs {
		if vs[i].ts <= tsq && (best == nil || vs[i].ts > best.ts) {
			best = &vs[i]
		}
	}
	if best == nil || best.del {
		return nil, false
	}
	return best.val, true
}

// TestPropertyRandomOpsMatchModel drives a long random operation sequence
// (puts, deletes, point reads at random historical timestamps, range
// scans, explicit flush/compact) against the verified store and a
// reference model, checking exact agreement everywhere. KeepVersions=0 so
// full history (and hence the hash-chain machinery) is exercised.
func TestPropertyRandomOpsMatchModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := mustOpenP2(t, smallCfg(nil))
			defer s.Close()
			model := newRefModel()
			rnd := rand.New(rand.NewSource(seed))
			var allTs []uint64
			keyOf := func() string { return fmt.Sprintf("key%03d", rnd.Intn(120)) }

			for i := 0; i < 2500; i++ {
				switch op := rnd.Intn(100); {
				case op < 45: // put
					key := keyOf()
					val := []byte(fmt.Sprintf("v%d", i))
					ts, err := Put(s, []byte(key), val)
					if err != nil {
						t.Fatal(err)
					}
					model.put(key, ts, val)
					allTs = append(allTs, ts)
				case op < 52: // delete
					key := keyOf()
					ts, err := Delete(s, []byte(key))
					if err != nil {
						t.Fatal(err)
					}
					model.del(key, ts)
					allTs = append(allTs, ts)
				case op < 75: // latest get
					key := keyOf()
					res, err := Get(s, []byte(key))
					if err != nil {
						t.Fatalf("op %d get: %v", i, err)
					}
					want, ok := model.getAt(key, record.MaxTs)
					if res.Found != ok || (ok && !bytes.Equal(res.Value, want)) {
						t.Fatalf("op %d: get %q = (%q,%v), want (%q,%v)", i, key, res.Value, res.Found, want, ok)
					}
				case op < 88 && len(allTs) > 0: // historical get
					key := keyOf()
					tsq := allTs[rnd.Intn(len(allTs))]
					res, err := s.GetAt(nil, []byte(key), tsq)
					if err != nil {
						t.Fatalf("op %d historical get: %v", i, err)
					}
					want, ok := model.getAt(key, tsq)
					if res.Found != ok || (ok && !bytes.Equal(res.Value, want)) {
						t.Fatalf("op %d: getAt(%q,%d) = (%q,%v), want (%q,%v)", i, key, tsq, res.Value, res.Found, want, ok)
					}
				case op < 94: // verified scan
					lo := rnd.Intn(110)
					hi := lo + rnd.Intn(15)
					start := fmt.Sprintf("key%03d", lo)
					end := fmt.Sprintf("key%03d", hi)
					out, err := Scan(s, []byte(start), []byte(end))
					if err != nil {
						t.Fatalf("op %d scan: %v", i, err)
					}
					got := map[string]string{}
					for _, r := range out {
						got[string(r.Key)] = string(r.Value)
					}
					for k := lo; k <= hi; k++ {
						key := fmt.Sprintf("key%03d", k)
						want, ok := model.getAt(key, record.MaxTs)
						gv, gok := got[key]
						if ok != gok || (ok && gv != string(want)) {
							t.Fatalf("op %d: scan key %q = (%q,%v), want (%q,%v)", i, key, gv, gok, want, ok)
						}
					}
					if len(got) > hi-lo+1 {
						t.Fatalf("op %d: scan returned extraneous keys", i)
					}
				case op < 97:
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				default:
					if err := s.Compact(1 + rnd.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
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
