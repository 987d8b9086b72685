package lsm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPickJob is the scheduler's decision table: pickJob is pure, so every
// rule is one row — no store, no goroutines, no sleeps.
func TestPickJob(t *testing.T) {
	flush := &maintJob{kind: jobFlush}
	compact := func(lvl int) *maintJob { return &maintJob{kind: jobCompact, level: lvl} }
	reqCompact := func(lvl int) *maintJob {
		return &maintJob{kind: jobCompact, level: lvl, done: make(chan error, 1)}
	}
	bulk := &maintJob{kind: jobExclusive, done: make(chan error, 1)}
	req2 := reqCompact(2)
	claimed := func(lvls ...int) map[int]bool {
		m := map[int]bool{}
		for _, l := range lvls {
			m[l] = true
		}
		return m
	}
	for _, tc := range []struct {
		name string
		st   maintState
		want *maintJob
	}{
		{"nothing to do", maintState{debt: []int64{0, 0, 0, 0}}, nil},
		{"a frozen memtable is flushed", maintState{frozen: true}, flush},
		{"flush beats any compaction", maintState{frozen: true, debt: []int64{0, 9, 99, 0}}, flush},
		{"flush beats a requested compaction", maintState{frozen: true, head: req2}, flush},
		{"flush waits for L1", maintState{frozen: true, claimed: claimed(1, 2), inflight: 1}, nil},
		{"a blocked flush does not hold back a disjoint level", maintState{frozen: true, debt: []int64{0, 5, 0, 7, 0}, claimed: claimed(1, 2), inflight: 1}, compact(3)},
		{"largest debt first", maintState{debt: []int64{0, 10, 30, 20, 0}}, compact(2)},
		{"equal debt goes to the shallower level", maintState{debt: []int64{0, 0, 30, 30, 0}}, compact(2)},
		{"a level under its target is never picked", maintState{debt: []int64{0, 0, 0, 0, 0}}, nil},
		{"the upper neighbour's claim blocks", maintState{debt: []int64{0, 0, 30, 0, 0}, claimed: claimed(1, 2), inflight: 1}, nil},
		{"the lower neighbour's claim blocks", maintState{debt: []int64{0, 0, 30, 0, 0}, claimed: claimed(3, 4), inflight: 1}, nil},
		{"a claimed pair yields to the next debt", maintState{debt: []int64{0, 0, 30, 0, 10, 0}, claimed: claimed(2, 3), inflight: 1}, compact(4)},
		{"disjoint pairs run side by side", maintState{debt: []int64{0, 40, 0, 10, 0}, claimed: claimed(3, 4), inflight: 1}, compact(1)},
		{"a requested compaction runs whatever its level's debt", maintState{head: req2, debt: []int64{0, 50, 0, 0}}, req2},
		{"a requested compaction waits for its pair; debt elsewhere goes on", maintState{head: req2, debt: []int64{0, 0, 0, 0, 8, 0}, claimed: claimed(3, 4), inflight: 1}, nil},
		{"… and a free pair elsewhere is still picked", maintState{head: req2, debt: []int64{0, 0, 0, 0, 0, 8, 0}, claimed: claimed(1, 2), inflight: 1}, compact(5)},
		{"an exclusive request runs with nothing in flight", maintState{head: bulk}, bulk},
		{"an exclusive request waits for inflight == 0", maintState{head: bulk, claimed: claimed(3, 4), inflight: 1}, nil},
		{"… and holds back the flush and every level behind it", maintState{head: bulk, frozen: true, debt: []int64{0, 50, 0, 0}, claimed: claimed(3, 4), inflight: 1}, nil},
		{"… and goes first once it can", maintState{head: bulk, frozen: true, debt: []int64{0, 50, 0, 0}}, bulk},
		{"DisableCompaction: no debt, no compaction", maintState{debt: nil}, nil},
		{"DisableCompaction: flushes still run", maintState{frozen: true, debt: nil}, flush},
		{"closing: the pending flush still runs", maintState{closing: true, frozen: true, debt: []int64{0, 50, 0}}, flush},
		{"closing: queued requests still run", maintState{closing: true, head: req2, debt: []int64{0, 50, 0}}, req2},
		{"closing: debt is left for the next open", maintState{closing: true, debt: []int64{0, 50, 0}}, nil},
		{"failed: nothing is discovered", maintState{failed: true, frozen: true, debt: []int64{0, 50, 0}}, nil},
		{"failed: a request still gets its answer", maintState{failed: true, frozen: true, head: req2}, req2},
		{"fresh: a just-opened store is left alone", maintState{fresh: true, frozen: true, head: req2, debt: []int64{0, 50, 0}}, nil},
	} {
		got := pickJob(tc.st)
		// A request is picked as itself; a discovered job by kind and level.
		same := got == tc.want
		if got != nil && tc.want != nil && tc.want.done == nil {
			same = got.done == nil && got.kind == tc.want.kind && got.level == tc.want.level
		}
		if !same {
			t.Errorf("%s: picked %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// jobLog records every job's plan as the listener sees it.
type jobLog struct {
	NopListener
	mu   sync.Mutex
	jobs []CompactionInfo
}

func (l *jobLog) BeginJob(info CompactionInfo) Job {
	l.mu.Lock()
	l.jobs = append(l.jobs, info)
	l.mu.Unlock()
	return NopJob{}
}

// pacedLoad is the gate's set-up in miniature: rounds of "commit a batch
// smaller than a memtable, Flush, WaitMaintenance", scattered key order.
func pacedLoad(t *testing.T, s *Store, rounds int) {
	t.Helper()
	n := 0
	for r := 0; r < rounds; r++ {
		ops := make([]BatchOp, 64)
		for i := range ops {
			ops[i] = BatchOp{Key: []byte(fmt.Sprintf("user%08d", (n*7919)%4000)), Value: make([]byte, 40)}
			n++
		}
		if _, err := s.Commit(nil, ops); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.WaitMaintenance(); err != nil {
			t.Fatal(err)
		}
	}
}

func pacedOpts(l EventListener) Options {
	opts := bgOpts(nil)
	opts.MemtableSize = 1 << 20 // a round never fills it: every flush is the explicit one
	opts.Listener = l
	return opts
}

// TestFlushDoesNotCompactTwice is the counted regression for the duplicate
// path: Flush used to run its own compaction of every overflowing level
// beside the one its flush job had queued, and the second of the pair
// rewrote the level the first had just settled — alone.
func TestFlushDoesNotCompactTwice(t *testing.T) {
	l := &jobLog{}
	s := mustOpen(t, pacedOpts(l))
	defer s.Close()
	pacedLoad(t, s, 60)

	st := s.Stats()
	if st.Compactions == 0 || st.Compactions != st.BackgroundCompactions {
		t.Errorf("%d compactions, %d of them the scheduler's: every one reached through Flush must be", st.Compactions, st.BackgroundCompactions)
	}
	level := map[uint64]int{} // where each run was installed
	for _, info := range l.jobs {
		if len(info.InputRuns) == 1 && !info.MemtableInput && level[info.InputRuns[0]] == info.OutputLevel {
			t.Errorf("job %+v rewrote one run of its own output level", info)
		}
		level[info.OutputRun] = info.OutputLevel
	}
	// The tree the parent commit built from this load, and what it paid.
	const parentDiskBytes, parentBytesCompacted = 275425, 2424052
	if got := s.DiskBytes(); got != parentDiskBytes {
		t.Errorf("DiskBytes = %d, want the same tree as before: %d", got, parentDiskBytes)
	}
	if st.BytesCompacted >= parentBytesCompacted {
		t.Errorf("BytesCompacted = %d, want fewer than the %d paid with the duplicate", st.BytesCompacted, parentBytesCompacted)
	}
}

// TestPacedLoadHasOneFingerprint: what runs next is a function of state, so
// a paced load builds the same tree through the same jobs every time.
func TestPacedLoadHasOneFingerprint(t *testing.T) {
	seen := map[[4]uint64]int{}
	for i := 0; i < 200; i++ {
		s := mustOpen(t, pacedOpts(nil))
		pacedLoad(t, s, 20)
		st := s.Stats()
		seen[[4]uint64{uint64(s.DiskBytes()), st.Flushes, st.Compactions, st.BytesCompacted}]++
		s.Close()
	}
	if len(seen) != 1 {
		t.Fatalf("200 paced set-ups gave %d fingerprints (DiskBytes, Flushes, Compactions, BytesCompacted): %v", len(seen), seen)
	}
	for fp := range seen {
		if fp[0] == 0 || fp[1] != 20 || fp[2] == 0 {
			t.Fatalf("fingerprint %v: the load never compacted", fp)
		}
	}
}

// TestFlushReturnsBesideWriters: Flush waits for the memtable IT froze and
// for a moment of rest, not for the tables writers keep freezing after it.
func TestFlushReturnsBesideWriters(t *testing.T) {
	s := mustOpen(t, bgOpts(nil))
	defer s.Close()
	stop := make(chan struct{})
	var writers, writing sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		writing.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := putKV(s, []byte(fmt.Sprintf("w%d-key%06d", w, i%3000)), []byte("vvvvvvvvvvvvvvvv")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i == 0 {
					writing.Done()
				}
			}
		}(w)
	}
	writing.Wait()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if err := s.Flush(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Flush: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Error("Flush did not return while writers kept writing")
	}
	close(stop)
	writers.Wait()
}
