package lsm

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// TestVersionPinsUnderInstalls runs readers that acquire and release
// snapshots — one-shot ones, and sessions held across several reads —
// beside a writer whose commits keep flushes and compactions installing. A
// pinned run's table files must exist and answer reads for as long as the
// pin is held; once every reader has let go, the files on disk must be
// exactly those of the current version's runs, no version but the current
// one may be live, and the gauges must read zero.
func TestVersionPinsUnderInstalls(t *testing.T) {
	mem := vfs.NewMem()
	s := mustOpen(t, smallOpts(mem))
	defer s.Close()

	const keys = 300
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i%keys)) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	check := func(sn *Snapshot, probe int) error {
		for i, r := range sn.v.runs {
			for _, th := range r.tables {
				if name := tableName(th.fileNum); !mem.Exists(name) {
					return fmt.Errorf("run %d's file %s is gone while pinned", r.id, name)
				}
			}
			if _, err := sn.LookupRun(i, key(probe), record.MaxTs); err != nil {
				return fmt.Errorf("lookup in pinned run %d: %w", r.id, err)
			}
		}
		return nil
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []*Snapshot
			defer func() {
				for _, sn := range held {
					sn.Release()
				}
			}()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var sn Snapshot
				s.AcquireSnapshotInto(&sn, false)
				err := check(&sn, i)
				sn.Release()
				if err == nil && i%16 == g {
					held = append(held, s.AcquireSnapshot())
				}
				for j := 0; err == nil && j < len(held); j++ {
					err = check(held[j], i)
				}
				if len(held) > 3 {
					held[0].Release()
					held = held[1:]
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	value := make([]byte, 64)
	for i := 0; i < 1500; i++ {
		if _, err := putKV(s, key(i), value); err != nil {
			t.Fatal(err)
		}
		if i%500 == 499 {
			if err := s.Compact(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Compactions == 0 || st.Flushes == 0 {
		t.Fatalf("the writer installed %d flushes and %d compactions, want some of each", st.Flushes, st.Compactions)
	}
	if st.PinnedRuns != 0 || st.SnapshotsOpen != 0 {
		t.Fatalf("after every release: PinnedRuns=%d SnapshotsOpen=%d, want 0/0", st.PinnedRuns, st.SnapshotsOpen)
	}
	s.versionMu.Lock()
	live := len(s.versions)
	s.versionMu.Unlock()
	if live != 1 {
		t.Fatalf("%d versions live after every release, want the current one", live)
	}
	var want []string
	for _, r := range s.current.Load().runs {
		for _, th := range r.tables {
			want = append(want, tableName(th.fileNum))
		}
	}
	slices.Sort(want)
	if got := tableFiles(t, mem); !slices.Equal(got, want) {
		t.Fatalf("table files on disk %v, the current version's %v: released versions leaked files", got, want)
	}
}

// trustListener's jobs return their output run's ID, as a trustID, from
// Installed.
type trustListener struct{ NopListener }

type trustID uint64

type trustJob struct {
	NopJob
	out uint64
}

func (trustListener) BeginJob(info CompactionInfo) Job { return trustJob{out: info.OutputRun} }

func (j trustJob) Installed() any { return trustID(j.out) }

// TestRunTrustTravelsWithTheRun: the value a job's Installed returns is on
// its run in every version published after the install, through later
// flushes and compactions, until the run retires — a snapshot pinned before
// then keeps it. After a reopen no job installed the runs: they carry
// nothing until SetRunTrust, whose version carries its value on every
// recovered run, and the versions after it keep them beside the values of
// runs installed since.
func TestRunTrustTravelsWithTheRun(t *testing.T) {
	opts := smallOpts(vfs.NewMem())
	opts.Listener = trustListener{}
	s := mustOpen(t, opts)
	check := func(sn *Snapshot, want func(id uint64) any) {
		t.Helper()
		for _, r := range sn.Runs() {
			if r.Trust != want(r.ID) {
				t.Fatalf("run %d carries %v, want %v", r.ID, r.Trust, want(r.ID))
			}
		}
	}
	installed := func(id uint64) any { return trustID(id) }
	write := func(n int) {
		t.Helper()
		var held []*Snapshot
		value := make([]byte, 64)
		for i := 0; i < n; i++ {
			if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i%500)), value); err != nil {
				t.Fatal(err)
			}
			if i%100 == 99 {
				sn := s.AcquireSnapshot()
				check(sn, installed)
				held = append(held, sn)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, sn := range held {
			check(sn, installed)
			sn.Release()
		}
	}
	write(3000)
	if st := s.Stats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("%d flushes and %d compactions: no run was installed and retired", st.Flushes, st.Compactions)
	}
	sn := s.AcquireSnapshot()
	check(sn, installed)
	sn.Release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, opts)
	defer s.Close()
	sn = s.AcquireSnapshot()
	check(sn, func(uint64) any { return nil })
	sn.Release()
	recovered := map[uint64]bool{}
	for _, r := range s.Runs() {
		recovered[r.ID] = true
	}
	if len(recovered) == 0 {
		t.Fatal("no run was recovered")
	}
	attached := func(id uint64) any { return fmt.Sprint("recovered ", id) }
	s.SetRunTrust(func(id uint64, runFilter []byte) any {
		if runFilter != nil {
			t.Errorf("run %d, written without proofs, stores a run filter of %d bytes", id, len(runFilter))
		}
		return attached(id)
	})
	sn = s.AcquireSnapshot()
	if len(sn.Runs()) != len(recovered) {
		t.Fatalf("%d runs after SetRunTrust, %d recovered", len(sn.Runs()), len(recovered))
	}
	check(sn, attached)
	sn.Release()
	installed = func(id uint64) any {
		if recovered[id] {
			return attached(id)
		}
		return trustID(id)
	}
	write(300)
	if s.Stats().Flushes == 0 {
		t.Fatal("no flush after the reopen")
	}
}
