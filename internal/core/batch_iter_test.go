package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"elsm/internal/record"
	"elsm/internal/sgx"
)

// batchOf builds n sequential set ops starting at index base.
func batchOf(base, n int) []BatchOp {
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{
			Key:   []byte(fmt.Sprintf("key%05d", base+i)),
			Value: []byte(fmt.Sprintf("val%d", base+i)),
		}
	}
	return ops
}

func TestBatchEquivalentToSingles(t *testing.T) {
	// The same operations applied as one batch and as singles must yield
	// identical verified reads AND identical WAL digest chains (the
	// per-record chain extension is preserved; only the boundary costs are
	// amortized).
	single := mustOpenP2(t, smallCfg(nil))
	defer single.Close()
	batched := mustOpenP2(t, smallCfg(nil))
	defer batched.Close()

	ops := batchOf(0, 100)
	ops[40].Delete = true
	ops[40].Value = nil
	for _, op := range ops {
		var err error
		if op.Delete {
			_, err = Delete(single, op.Key)
		} else {
			_, err = Put(single, op.Key, op.Value)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ts, err := batched.Commit(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := single.Engine().LastTs(); ts != want {
		t.Fatalf("batch commit ts = %d, want %d", ts, want)
	}
	if single.walDigest != batched.walDigest {
		t.Fatal("batched WAL digest chain diverges from the single-put chain")
	}
	sr, err := Scan(single, []byte("key"), []byte("kez"))
	if err != nil {
		t.Fatal(err)
	}
	br, err := Scan(batched, []byte("key"), []byte("kez"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr) != len(br) || len(br) != 99 {
		t.Fatalf("scan lengths: single %d, batched %d", len(sr), len(br))
	}
	for i := range sr {
		if !bytes.Equal(sr[i].Key, br[i].Key) || !bytes.Equal(sr[i].Value, br[i].Value) {
			t.Fatalf("row %d: single %q=%q, batched %q=%q", i, sr[i].Key, sr[i].Value, br[i].Key, br[i].Value)
		}
	}
}

func TestBatchSingleCounterBump(t *testing.T) {
	// With a counter interval much smaller than the batch, the periodic
	// bump must be deferred to the end of the group: one bump per batch,
	// not one per interval crossing.
	counter := sgx.NewMonotonicCounter()
	cfg := smallCfg(nil)
	cfg.Counter = counter
	cfg.CounterInterval = 4
	cfg.MemtableSize = 1 << 20 // no flush mid-test
	s := mustOpenP2(t, cfg)
	defer s.Close()
	base, _ := counter.Read() // a fresh store seals once at open

	if _, err := s.Commit(nil, batchOf(0, 100)); err != nil {
		t.Fatal(err)
	}
	if v, _ := counter.Read(); v != base+1 {
		t.Fatalf("counter after one batch = %d, want %d (one deferred bump)", v, base+1)
	}

	// The single-put path still bumps per interval.
	for i := 0; i < 8; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("s%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := counter.Read(); v != base+3 {
		t.Fatalf("counter after 8 singles at interval 4 = %d, want %d", v, base+3)
	}
}

func TestBatchTriggersFlush(t *testing.T) {
	cfg := smallCfg(nil)
	s := mustOpenP2(t, cfg)
	defer s.Close()
	// Far beyond the 4 KiB memtable: the batch must trigger a (background)
	// flush and stay readable through the authenticated run path.
	if _, err := s.Commit(nil, batchOf(0, 500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Engine().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if s.Engine().Stats().Flushes == 0 {
		t.Fatal("oversized batch did not flush")
	}
	res, err := Get(s, []byte("key00007"))
	if err != nil || !res.Found {
		t.Fatalf("get after batch flush: %v found=%v", err, res.Found)
	}
	if _, err := s.Commit(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestIteratorStreamsInChunks(t *testing.T) {
	cfg := smallCfg(nil)
	cfg.IterChunkKeys = 16
	s := mustOpenP2(t, cfg)
	defer s.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Enclave().Stats().ECalls
	it := s.IterAt(nil, []byte("key"), []byte("kez"), record.MaxTs)
	count := 0
	for it.Next() {
		want := fmt.Sprintf("key%05d", count)
		if string(it.Result().Key) != want {
			t.Fatalf("row %d key = %q, want %q", count, it.Result().Key, want)
		}
		count++
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("streamed %d of %d", count, n)
	}
	chunks := s.Enclave().Stats().ECalls - before
	if chunks < uint64(n)/16 {
		t.Fatalf("iteration used %d ECalls for %d keys at chunk 16 — not streaming in chunks", chunks, n)
	}
}

func TestIteratorHistoricalMatchesScanAt(t *testing.T) {
	s := mustOpenP2(t, smallCfg(nil))
	defer s.Close()
	var mid uint64
	for round := 0; round < 3; round++ {
		for i := 0; i < 60; i++ {
			ts, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("r%d-%d", round, i)))
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 && i == 59 {
				mid = ts
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ScanAll(s.IterAt(nil, []byte("key"), []byte("kez"), mid))
	if err != nil {
		t.Fatal(err)
	}
	it := s.IterAt(nil, []byte("key"), []byte("kez"), mid)
	var got []Result
	for it.Next() {
		got = append(got, it.Result())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 60 {
		t.Fatalf("historical stream %d rows, scan %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Value, want[i].Value) || got[i].Ts != want[i].Ts {
			t.Fatalf("row %d: stream %q@%d, scan %q@%d", i, got[i].Value, got[i].Ts, want[i].Value, want[i].Ts)
		}
	}
}

// tamperCase mutates what one run's cursor handed a scan chunk the way a
// malicious host would, via the scanTamper test hook. The host serves the
// proofs too: proofOf returns the embedded proof of any key of the run, for a
// case that covers its tracks.
type tamperCase struct {
	name   string
	mutate func(sp *runSpan, proofOf func(key []byte) []byte) bool // returns true if it tampered
}

func tamperCases() []tamperCase {
	return []tamperCase{
		{"omit-interior-record", func(sp *runSpan, _ func([]byte) []byte) bool {
			if len(sp.rows) < 8 {
				return false
			}
			sp.rows = append(append([]record.Record(nil), sp.rows[:3]...), sp.rows[4:]...)
			return true
		}},
		{"reorder-records", func(sp *runSpan, _ func([]byte) []byte) bool {
			if len(sp.rows) < 8 {
				return false
			}
			rows := append([]record.Record(nil), sp.rows...)
			rows[2], rows[5] = rows[5], rows[2]
			sp.rows = rows
			return true
		}},
		{"stale-substituted-value", func(sp *runSpan, _ func([]byte) []byte) bool {
			if len(sp.rows) < 8 {
				return false
			}
			rows := append([]record.Record(nil), sp.rows...)
			rows[3].Value = []byte("stale-forgery")
			sp.rows = rows
			return true
		}},
		{"drop-tail", func(sp *runSpan, proofOf func([]byte) []byte) bool {
			if len(sp.rows) < 8 {
				return false
			}
			// The span simply ends two keys early, under the proof of the
			// key it now ends on: only the successor gives it away.
			sp.rows = sp.rows[: len(sp.rows)-2 : len(sp.rows)-2]
			sp.last = proofOf(sp.rows[len(sp.rows)-1].Key)
			return true
		}},
	}
}

func TestAttackIteratorTamperMidStream(t *testing.T) {
	// A malicious host altering one chunk of a streamed range read must
	// stop the stream with ErrAuthFailed — in the streaming path AND in
	// the materialized Scan that is rebased on it, whether the verified-node
	// cache is cold or an honest scan of the range has warmed it.
	for _, tc := range tamperCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, cache := range []string{"cold", "warm"} {
				t.Run(cache, func(t *testing.T) {
					cfg := smallCfg(nil)
					cfg.IterChunkKeys = 32
					s := mustOpenP2(t, cfg)
					defer s.Close()
					for i := 0; i < 300; i++ {
						if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte("v")); err != nil {
							t.Fatal(err)
						}
					}
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					if cache == "warm" {
						if out, err := Scan(s, []byte("key"), []byte("kez")); err != nil || len(out) != 300 {
							t.Fatalf("honest scan: %d rows, %v", len(out), err)
						}
					}
					proofOf := func(key []byte) []byte {
						lk, err := lookupRun(s, s.Engine().Runs()[0].ID, key, record.MaxTs)
						if err != nil || !lk.Found {
							t.Errorf("no proof for %q: %v", key, err) // the hook may run on the prefetch goroutine
						}
						return lk.Rec.Proof
					}

					// Tamper with the SECOND chunk only: the stream must hand out
					// verified results first, then stop with ErrAuthFailed.
					chunk := 0
					tampered := false
					s.scanTamper = func(sp *runSpan) {
						chunk++
						if chunk >= 2 && !tampered {
							tampered = tc.mutate(sp, proofOf)
						}
					}
					it := s.IterAt(nil, []byte("key"), []byte("kez"), record.MaxTs)
					streamed := 0
					for it.Next() {
						streamed++
					}
					err := it.Close()
					if !tampered {
						t.Fatal("tamper hook never fired")
					}
					if !errors.Is(err, ErrAuthFailed) {
						t.Fatalf("streaming tamper %s: err = %v, want ErrAuthFailed", tc.name, err)
					}
					if streamed == 0 || streamed >= 300 {
						t.Fatalf("stream delivered %d rows before detection", streamed)
					}

					// Materialized path: same detection, no partial results.
					chunk, tampered = 0, false
					out, err := Scan(s, []byte("key"), []byte("kez"))
					if !errors.Is(err, ErrAuthFailed) {
						t.Fatalf("materialized tamper %s: err = %v, want ErrAuthFailed", tc.name, err)
					}
					if out != nil {
						t.Fatal("tampered scan returned partial results")
					}
				})
			}
		})
	}
}

func TestAttackIteratorOmittedKeyAcrossChunks(t *testing.T) {
	// Omitting an entire key group (not just one version) from a chunk is
	// the classic "silently filter the range" attack; the boundary
	// adjacency check must catch it.
	cfg := smallCfg(nil)
	cfg.IterChunkKeys = 64
	s := mustOpenP2(t, cfg)
	defer s.Close()
	for i := 0; i < 200; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	target := []byte("key00100")
	omit := func(sp *runSpan) {
		kept := sp.rows[:0:0]
		for _, rec := range sp.rows {
			if !bytes.Equal(rec.Key, target) {
				kept = append(kept, rec)
			}
		}
		sp.rows = kept
	}
	// Cold, then with the cache an honest scan of the range leaves behind.
	for _, cache := range []string{"cold", "warm"} {
		s.scanTamper = omit
		it := s.IterAt(nil, []byte("key"), []byte("kez"), record.MaxTs)
		for it.Next() {
			if bytes.Equal(it.Result().Key, target) {
				t.Fatalf("%s: omitted key emitted", cache)
			}
		}
		if err := it.Close(); !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("%s: key omission: err = %v, want ErrAuthFailed", cache, err)
		}
		s.scanTamper = nil
		if out, err := Scan(s, []byte("key"), []byte("kez")); err != nil || len(out) != 200 {
			t.Fatalf("honest scan: %d rows, %v", len(out), err)
		}
	}
}
