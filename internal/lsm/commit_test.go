package lsm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsm/internal/race"
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

// TestCommitAllocationGuard pins the commit path's allocations once warm: a
// synchronous one-op Commit allocates nothing (a pooled request, reused
// queue and group slices, WAL framing in place, an arena memtable), and a
// one-op CommitAsync only its future and the future's two channels.
func TestCommitAllocationGuard(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops sync.Pool puts at random: counts are not exact under it")
	}
	opts := smallOpts(nil)
	opts.MemtableSize = 64 << 20 // no freeze during the measurement
	s := mustOpen(t, opts)
	defer s.Close()
	ops := []BatchOp{{Key: []byte("key"), Value: []byte("value")}}
	allocs := func(f func()) float64 {
		for i := 0; i < 20; i++ {
			f()
		}
		return testing.AllocsPerRun(500, f)
	}
	commit := allocs(func() {
		if _, err := s.Commit(nil, ops); err != nil {
			t.Fatal(err)
		}
	})
	async := allocs(func() {
		fut, err := s.CommitAsync(nil, ops)
		if err == nil {
			_, err = fut.Wait(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-op Commit: %v allocs, one-op CommitAsync: %v", commit, async)
	if commit != 0 {
		t.Errorf("a warm one-op Commit allocates %v, want 0", commit)
	}
	if async > 3 {
		t.Errorf("a warm one-op CommitAsync allocates %v, want ≤ 3", async)
	}
}

// TestCommitCancellationStress cancels thousands of commits at random points
// against a commit worker slowed by a short fsync, so withdrawals race the
// worker's claim. Every acknowledged write must be readable at exactly its
// returned timestamp, every withdrawn one absent, and no key written twice —
// a recycled request processed a second time would show as a second version
// or as a caller woken with somebody else's timestamp.
func TestCommitCancellationStress(t *testing.T) {
	fs := vfs.NewSlowSync(vfs.NewMem(), 20*time.Microsecond)
	opts := smallOpts(fs)
	opts.MemtableSize = 64 << 20 // everything stays in one memtable
	s := mustOpen(t, opts)

	const writers, perWriter = 8, 400
	type outcome struct {
		ts    uint64
		acked bool
	}
	results := make([][]outcome, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		results[w] = make([]outcome, perWriter)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("w%d-%04d", w, i))
				ops := []BatchOp{{Key: key, Value: key}}
				ctx, cancel := context.WithCancel(context.Background())
				spins := rnd.Intn(4)
				go func() {
					for j := 0; j < spins; j++ {
						runtime.Gosched()
					}
					cancel()
				}()
				var ts uint64
				var err error
				if i%5 == 4 {
					var fut *CommitFuture
					if fut, err = s.CommitAsync(ctx, ops); err == nil {
						ts, err = fut.Wait(nil)
					}
				} else {
					ts, err = s.Commit(ctx, ops)
				}
				cancel()
				switch {
				case err == nil:
					results[w][i] = outcome{ts: ts, acked: true}
				case errors.Is(err, context.Canceled):
				default:
					t.Errorf("commit %s: %v", key, err)
					return
				}
				if i%97 == 0 {
					if err := s.Sync(nil); err != nil {
						t.Errorf("sync: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		s.Close()
		return
	}

	check := func(s *Store, when string) {
		t.Helper()
		snap := s.AcquireSnapshot()
		defer snap.Release()
		versions := make(map[string]int)
		active, _ := snap.MemTables()
		for mem := active.Iter(); mem.Valid(); mem.Next() {
			versions[string(mem.Record().Key)]++
		}
		acked, seen := 0, make(map[uint64]bool)
		for w := range results {
			for i, o := range results[w] {
				key := fmt.Sprintf("w%d-%04d", w, i)
				if !o.acked {
					if versions[key] != 0 {
						t.Fatalf("%s: withdrawn write %s is present", when, key)
					}
					continue
				}
				acked++
				if versions[key] != 1 {
					t.Fatalf("%s: acknowledged write %s has %d versions, want 1", when, key, versions[key])
				}
				if seen[o.ts] {
					t.Fatalf("%s: timestamp %d acknowledged twice", when, o.ts)
				}
				seen[o.ts] = true
				rec, ok, err := snap.Get([]byte(key), o.ts)
				if err != nil || !ok || rec.Ts != o.ts || string(rec.Value) != key {
					t.Fatalf("%s: %s at its ts %d: %+v found=%v err=%v", when, key, o.ts, rec, ok, err)
				}
			}
		}
		if len(versions) != acked {
			t.Fatalf("%s: %d keys written, %d acknowledged", when, len(versions), acked)
		}
		t.Logf("%s: %d of %d commits acknowledged, the rest withdrawn", when, acked, writers*perWriter)
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, opts)
	defer s2.Close()
	check(s2, "after replay")
}

// TestSnapshotSeesItsWholeFrontier: the commit worker applies a group
// without the engine lock and stores appliedTs only after the group's last
// insert, so a snapshot taken at any moment holds every record at or below
// its timestamp. One writer commits batches whose keys name their records'
// timestamps; readers meanwhile take snapshots and look up the records at
// each snapshot's frontier.
func TestSnapshotSeesItsWholeFrontier(t *testing.T) {
	opts := smallOpts(nil)
	opts.MemtableSize = 64 << 20 // the records stay in one memtable
	s := mustOpen(t, opts)
	defer s.Close()
	keyOf := func(ts uint64) []byte { return []byte(fmt.Sprintf("k%08d", ts)) }
	const batches, per = 3000, 4
	var writing atomic.Bool
	writing.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		next := s.LastTs() + 1
		for b := 0; b < batches; b++ {
			ops := make([]BatchOp, per)
			for i := range ops {
				ops[i] = BatchOp{Key: keyOf(next + uint64(i)), Value: []byte("v")}
			}
			ts, err := s.Commit(nil, ops)
			if err != nil {
				t.Error(err)
				return
			}
			next = ts + 1
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writing.Load() {
				snap := s.AcquireEphemeralSnapshot()
				front := snap.Ts()
				for ts := front; ts > 0 && ts+per > front; ts-- {
					if _, ok := snap.MemGet(keyOf(ts), front); !ok {
						t.Errorf("a snapshot at %d misses the record committed at %d", front, ts)
						snap.Release()
						return
					}
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
}
