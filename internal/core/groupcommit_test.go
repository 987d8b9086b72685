package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// TestGroupCommitConcurrentWritersStress drives the pipeline from many
// goroutines mixing Put, Delete and multi-op Commit, then checks the core
// commit invariants: every commit got its own timestamp, timestamps are
// strictly monotonic in commit order per caller, the global timestamp
// range is dense (no lost or duplicated records), and every key reads back
// the value of its highest-timestamped write — verified.
func TestGroupCommitConcurrentWritersStress(t *testing.T) {
	cfg := smallCfg(nil)
	cfg.MemtableSize = 1 << 20 // keep everything in one memtable: count checks stay exact
	s := mustOpenP2(t, cfg)
	defer s.Close()

	const writers = 8
	const opsPerWriter = 60 // each op is 1 Put, 1 Delete or a 4-record batch

	type write struct {
		key string
		val string
		ts  uint64
		del bool
	}
	results := make([][]write, writers)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev uint64
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%02d-k%03d", w, i%20)
				val := fmt.Sprintf("w%d-i%d", w, i)
				var ts uint64
				var err error
				switch i % 3 {
				case 0:
					ts, err = Put(s, []byte(key), []byte(val))
					results[w] = append(results[w], write{key, val, 0, false})
				case 1:
					ts, err = Delete(s, []byte(key))
					results[w] = append(results[w], write{key, "", 0, true})
				default:
					ops := make([]BatchOp, 4)
					for j := range ops {
						bk := fmt.Sprintf("w%02d-b%03d", w, (i+j)%20)
						bv := fmt.Sprintf("w%d-i%d-j%d", w, i, j)
						ops[j] = BatchOp{Key: []byte(bk), Value: []byte(bv)}
						results[w] = append(results[w], write{bk, bv, 0, false})
					}
					ts, err = s.Commit(nil, ops)
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
				if ts <= prev {
					errs <- fmt.Errorf("writer %d op %d: commit ts %d not after %d", w, i, ts, prev)
					return
				}
				// Tag this op's writes with their timestamps (a batch's
				// records end at its commit ts, contiguously).
				n := 1
				if i%3 == 2 {
					n = 4
				}
				recs := results[w][len(results[w])-n:]
				for j := range recs {
					recs[j].ts = ts - uint64(n-1-j)
				}
				prev = ts
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Dense timestamp coverage: exactly one record per timestamp 1..N.
	var all []write
	for _, rs := range results {
		all = append(all, rs...)
	}
	seen := make(map[uint64]bool, len(all))
	for _, wr := range all {
		if seen[wr.ts] {
			t.Fatalf("timestamp %d assigned twice", wr.ts)
		}
		seen[wr.ts] = true
	}
	if got, want := s.Engine().LastTs(), uint64(len(all)); got != want {
		t.Fatalf("engine LastTs = %d, want %d (lost or duplicated records)", got, want)
	}
	for ts := uint64(1); ts <= uint64(len(all)); ts++ {
		if !seen[ts] {
			t.Fatalf("timestamp %d never assigned (gap in commit range)", ts)
		}
	}

	// Every key must read back its highest-timestamped write, verified.
	type final struct {
		ts  uint64
		val string
		del bool
	}
	want := map[string]final{}
	for _, wr := range all {
		if wr.ts > want[wr.key].ts {
			want[wr.key] = final{wr.ts, wr.val, wr.del}
		}
	}
	for key, f := range want {
		res, err := Get(s, []byte(key))
		if err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		if f.del {
			if res.Found {
				t.Fatalf("get %q found=%v, want tombstone (ts %d)", key, res.Found, f.ts)
			}
			continue
		}
		if !res.Found || string(res.Value) != f.val || res.Ts != f.ts {
			t.Fatalf("get %q = (%q, ts %d, found %v), want (%q, ts %d)",
				key, res.Value, res.Ts, res.Found, f.val, f.ts)
		}
	}

	st := s.Engine().Stats()
	if st.GroupedRecords != uint64(len(all)) {
		t.Fatalf("pipeline carried %d records, want %d", st.GroupedRecords, len(all))
	}
}

// TestGroupCommitCoalescesSyncsAndBumps: on storage where fsync costs real
// time, 8 concurrent writers commit 200 single-op groups. Committed one by
// one, at CounterInterval=1 they would cost 200 WAL fsyncs and 200 counter
// bumps; the pipeline must coalesce them into at most half of each. (On a
// depth-1 device the time follows from the fsync count.)
func TestGroupCommitCoalescesSyncsAndBumps(t *testing.T) {
	const writers = 8
	const opsPerWriter = 25
	fs := vfs.NewSlowSync(vfs.NewMem(), time.Millisecond)
	cfg := smallCfg(fs)
	cfg.MemtableSize = 1 << 20
	cfg.CounterInterval = 1 // bump at every commit group: bumps count groups
	cfg.Counter = sgx.NewMonotonicCounter()
	s := mustOpenP2(t, cfg)
	defer s.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWriter; i++ {
				key := fmt.Sprintf("w%02d-k%03d", w, i)
				if _, err := Put(s, []byte(key), []byte("v")); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	const perOp = writers * opsPerWriter
	syncs := s.Engine().Stats().WALSyncs
	bumps, _ := cfg.Counter.Read()
	if syncs*2 > perOp {
		t.Fatalf("%d commits issued %d fsyncs — not coalescing (per-op: %d)", perOp, syncs, perOp)
	}
	if bumps*2 > perOp {
		t.Fatalf("%d commits paid %d counter bumps — not amortizing (per-op: %d)", perOp, bumps, perOp)
	}
	t.Logf("%d commits: %d fsyncs, %d bumps", perOp, syncs, bumps)
}

// TestFsyncFailureKeepsSealableState injects a single WAL fsync failure
// mid-stream and checks the failure is fail-stop AND recoverable: the
// store refuses every further commit with the sticky typed
// lsm.ErrWALSyncFailed until reopened (a lying disk must not be written
// past), and after reopen the authentication layer's durable-frontier
// bookkeeping is coherent — later commits seal correctly, a flush rotates
// the WAL cleanly, and a second reopen sees no false rollback.
func TestFsyncFailureKeepsSealableState(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	platform, err := sgx.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	counter := sgx.NewMonotonicCounter()
	base := func() Config {
		cfg := smallCfg(fs)
		cfg.Platform = platform
		cfg.Counter = counter
		cfg.CounterInterval = 1 // seal after every commit group
		return cfg
	}

	s := mustOpenP2(t, base())
	if _, err := Put(s, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Target only the WAL's fsync: the group's append succeeds, its fsync
	// fails — the group was appended (mark queued) but never became
	// durable.
	fs.ArmFilter(vfs.OpSync, "wal*")
	fs.Arm(0)
	if _, err := Put(s, []byte("b"), []byte("2")); !errors.Is(err, lsm.ErrWALSyncFailed) {
		t.Fatalf("put with failing fsync = %v, want ErrWALSyncFailed", err)
	}
	fs.Disarm()
	// A WAL sync failure is fail-stop and sticky: commits keep refusing
	// with the typed error until the store is reopened, even though the
	// disk recovered — the in-memory frontier can no longer be trusted to
	// match the log.
	if _, err := Put(s, []byte("never"), []byte("x")); !errors.Is(err, lsm.ErrWALSyncFailed) {
		t.Fatalf("put after sync failure = %v, want sticky ErrWALSyncFailed", err)
	}
	s.Close()
	s = mustOpenP2(t, base())
	// Subsequent commits must seal coherent durable state.
	for i := 0; i < 4; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("c%d", i)), []byte("3")); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate the WAL under the post-failure mark bookkeeping.
	if err := s.engine.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := Put(s, []byte("d"), []byte("4")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: a desynchronized mark queue would have sealed a digest that
	// matches no prefix of the live WAL and fail here as a false rollback.
	s2 := mustOpenP2(t, base())
	defer s2.Close()
	for _, kv := range [][2]string{{"a", "1"}, {"c0", "3"}, {"d", "4"}} {
		res, err := Get(s2, []byte(kv[0]))
		if err != nil || !res.Found || string(res.Value) != kv[1] {
			t.Fatalf("get %q after recovery = (%q, found=%v, err=%v), want %q", kv[0], res.Value, res.Found, err, kv[1])
		}
	}
}

// TestTamperDetectionUnderConcurrentReaders runs verified point and range
// reads from several goroutines at once — first against an honest host
// while writers keep committing (everything must verify), then against a
// tampering host (every reader must observe ErrAuthFailed).
func TestTamperDetectionUnderConcurrentReaders(t *testing.T) {
	cfg := smallCfg(nil)
	cfg.IterChunkKeys = 16
	s := mustOpenP2(t, cfg)
	defer s.Close()
	const keys = 200
	for i := 0; i < keys; i++ {
		if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Phase 1: honest host, concurrent readers and writers. Writers run
	// until the readers finish, then are stopped.
	var wgW, wg sync.WaitGroup
	stop := make(chan struct{})
	rerrs := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("key%05d", (w*97+i)%keys)
				if _, err := Put(s, []byte(key), []byte(fmt.Sprintf("u%d-%d", w, i))); err != nil {
					rerrs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("key%05d", (r*31+i)%keys)
				res, err := Get(s, []byte(key))
				if err != nil {
					rerrs <- fmt.Errorf("reader %d get: %w", r, err)
					return
				}
				if !res.Found {
					rerrs <- fmt.Errorf("reader %d: key %q vanished", r, key)
					return
				}
				if i%10 == 0 {
					it := s.IterAt(nil, []byte("key00050"), []byte("key00090"), record.MaxTs)
					prev := []byte(nil)
					for it.Next() {
						if prev != nil && bytes.Compare(it.Result().Key, prev) <= 0 {
							rerrs <- fmt.Errorf("reader %d: iter out of order", r)
							return
						}
						prev = append(prev[:0], it.Result().Key...)
					}
					if err := it.Close(); err != nil {
						rerrs <- fmt.Errorf("reader %d iter: %w", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	wgW.Wait()
	close(rerrs)
	for err := range rerrs {
		t.Fatal(err)
	}

	// Phase 2: the host starts dropping a key from every range response.
	// Every concurrent reader must detect it.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	target := []byte("key00070")
	s.scanTamper = func(sp *runSpan) {
		kept := sp.rows[:0:0]
		for _, rec := range sp.rows {
			if !bytes.Equal(rec.Key, target) {
				kept = append(kept, rec)
			}
		}
		sp.rows = kept
	}
	verdicts := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := s.IterAt(nil, []byte("key00050"), []byte("key00090"), record.MaxTs)
			for it.Next() {
				if bytes.Equal(it.Result().Key, target) {
					verdicts <- errors.New("omitted key emitted")
					return
				}
			}
			verdicts <- it.Close()
		}()
	}
	wg.Wait()
	close(verdicts)
	n := 0
	for err := range verdicts {
		n++
		if !errors.Is(err, ErrAuthFailed) {
			t.Fatalf("concurrent reader verdict = %v, want ErrAuthFailed", err)
		}
	}
	if n != 4 {
		t.Fatalf("%d verdicts, want 4", n)
	}
}
