package lsm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"elsm/internal/vfs"
)

// TestGroupFormsBehindAHeldFsync pins group formation as a decision, not a
// timing: one commit parks in its fsync, eight more arrive behind it, and
// releasing the fsync commits them as exactly two groups of one fsync each —
// the parked commit, then the eight together.
func TestGroupFormsBehindAHeldFsync(t *testing.T) {
	fs := vfs.NewSlowSync(vfs.NewMem(), 0)
	opts := smallOpts(fs)
	opts.MemtableSize = 1 << 20 // no freeze: the log's fsyncs are the only ones
	s := mustOpen(t, opts)
	defer s.Close()
	release := fs.Hold()
	defer release()
	before := s.Stats()

	var wg sync.WaitGroup
	put := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := putKV(s, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Error(err)
			}
		}()
	}
	// until spins, yielding but never sleeping, until cond holds.
	until := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
		}
	}
	put(0)
	until("the first commit is appended", func() bool { return s.LastTs() == 1 })
	for i := 1; i <= 8; i++ {
		put(i)
	}
	until("the other eight are queued or appended", func() bool {
		s.gc.mu.Lock()
		defer s.gc.mu.Unlock()
		return int(s.LastTs())-1+len(s.gc.pending) == 8
	})
	release()
	wg.Wait()
	st := s.Stats()
	if groups, syncs := st.GroupCommits-before.GroupCommits, st.WALSyncs-before.WALSyncs; groups != 2 || syncs != 2 {
		t.Fatalf("nine commits behind one held fsync made %d groups and %d fsyncs, want 2 and 2", groups, syncs)
	}
}
