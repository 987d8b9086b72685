package lsm

import (
	"fmt"
	"slices"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// moveDown runs compactLevel(lvl) as the scheduler's own job, which may
// relabel, with no other job in flight.
func moveDown(s *Store, lvl int) error {
	return s.runSync(&maintJob{kind: jobExclusive, fn: func() error { return s.compactLevel(lvl, true) }})
}

// relabelOpts is smallOpts with nothing frozen or compacted unasked.
func relabelOpts(fs vfs.FS, keep int) Options {
	opts := smallOpts(fs)
	opts.MemtableSize = 1 << 20
	opts.LevelBase = 1 << 30
	opts.KeepVersions = keep
	return opts
}

// putRange writes keys [lo, hi) with values that name the key and tag.
func putRange(t *testing.T, s *Store, lo, hi int, tag string) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("%s%05d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRange reads keys [lo, hi) back at the latest time.
func checkRange(t *testing.T, s *Store, lo, hi int, tag string) {
	t.Helper()
	for i := lo; i < hi; i++ {
		key, want := fmt.Sprintf("key%05d", i), fmt.Sprintf("%s%05d", tag, i)
		if rec, ok, err := s.Get([]byte(key), record.MaxTs); err != nil || !ok || string(rec.Value) != want {
			t.Fatalf("Get(%s) = %q %v %v, want %q", key, rec.Value, ok, err, want)
		}
	}
}

// TestRelabelOnlyWhenNothingDrops: a lone run moves down a level by
// relabel — same ID, same files, no table written — when the move would
// drop nothing: the level below is not the bottom, the store keeps every
// version, or the run was built bottom-most under the same KeepVersions.
// The version records that, so a run recovery opened moves as it would have
// before the reopen, unless the store reopened under another KeepVersions:
// then at the bottom it is merged. An explicit Compact always merges. Only
// merges count as compactions.
func TestRelabelOnlyWhenNothingDrops(t *testing.T) {
	for _, tc := range []struct {
		name    string
		keep    int
		reopen  bool // the run is one recovery opened
		rekeep  int  // KeepVersions after the reopen, if not keep
		request bool // Compact, not the scheduler's job
		deeper  bool // a run two levels down: the move is not bottom-most
		move    bool
	}{
		{name: "built bottom-most", keep: 1, move: true},
		{name: "every version kept", keep: 0, move: true},
		{name: "recovered, every version kept", keep: 0, reopen: true, move: true},
		{name: "recovered, at the bottom", keep: 1, reopen: true, move: true},
		{name: "recovered under another KeepVersions", keep: 1, reopen: true, rekeep: 2, move: false},
		{name: "recovered, above the bottom", keep: 1, reopen: true, deeper: true, move: true},
		{name: "explicit Compact", keep: 0, request: true, move: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := vfs.NewMem()
			opts := relabelOpts(mem, tc.keep)
			s := mustOpen(t, opts)
			defer func() { s.Close() }()
			if tc.deeper {
				putRange(t, s, 0, 100, "old")
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				for _, lvl := range []int{1, 2} {
					if err := s.Compact(lvl); err != nil {
						t.Fatal(err)
					}
				}
			}
			putRange(t, s, 0, 200, "new")
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if tc.reopen {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if tc.rekeep != 0 {
					opts.KeepVersions = tc.rekeep
				}
				s = mustOpen(t, opts)
			}
			before, files, st0 := s.Runs(), tableFiles(t, mem), s.Stats()
			var err error
			if tc.request {
				err = s.Compact(1)
			} else {
				err = moveDown(s, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			after, st := s.Runs(), s.Stats()
			moved := st.Moves - st0.Moves
			switch {
			case tc.move && (moved != 1 || st.Compactions != st0.Compactions || st.BytesMoved-st0.BytesMoved == 0):
				t.Fatalf("%d moves (%d bytes), %d compactions: want one move and no compaction", moved, st.BytesMoved-st0.BytesMoved, st.Compactions-st0.Compactions)
			case !tc.move && (moved != 0 || st.Compactions != st0.Compactions+1):
				t.Fatalf("%d moves, %d compactions: want one compaction", moved, st.Compactions-st0.Compactions)
			}
			if tc.move {
				if after[0].ID != before[0].ID || after[0].Level != 2 || after[0].Index != 0 {
					t.Fatalf("run %d at level %d moved to %+v, want the same ID at the front of level 2", before[0].ID, before[0].Level, after[0])
				}
				if got := tableFiles(t, mem); !slices.Equal(got, files) {
					t.Fatalf("a relabel changed the table files: %v → %v", files, got)
				}
			}
			checkRange(t, s, 0, 200, "new")
		})
	}
}

// TestRelabelSharesTheRun: a version pinned before a relabel keeps listing
// the run at its old level and reading it; the versions before and after the
// move hold the same run, so when the old one unpins the run's files stay,
// and they go only when a merge retires the run.
func TestRelabelSharesTheRun(t *testing.T) {
	mem := vfs.NewMem()
	s := mustOpen(t, relabelOpts(mem, 0))
	defer s.Close()
	putRange(t, s, 0, 200, "v")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	old := s.AcquireSnapshot()
	files := tableFiles(t, mem)
	if err := moveDown(s, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Moves != 1 {
		t.Fatalf("%d moves, want 1", st.Moves)
	}
	if runs := old.Runs(); len(runs) != 1 || runs[0].Level != 1 {
		t.Fatalf("the version pinned before the move lists %v, want the run at level 1", runs)
	}
	if runs := s.Runs(); len(runs) != 1 || runs[0].Level != 2 || runs[0].ID != old.Runs()[0].ID {
		t.Fatalf("after the move %v, want run %d at level 2", runs, old.Runs()[0].ID)
	}
	for i := 0; i < 200; i += 37 {
		key := []byte(fmt.Sprintf("key%05d", i))
		if got, err := old.LookupRun(0, key, record.MaxTs); err != nil || !got.Found {
			t.Fatalf("the pinned version's lookup of %s: %+v, %v", key, got, err)
		}
	}
	old.Release()
	if got := tableFiles(t, mem); !slices.Equal(got, files) {
		t.Fatalf("the old version's unpin deleted the moved run's files: %v → %v", files, got)
	}
	checkRange(t, s, 0, 200, "v")

	// A merge into level 3 retires the run: its files go with it.
	if err := s.Compact(2); err != nil {
		t.Fatal(err)
	}
	for _, name := range tableFiles(t, mem) {
		if slices.Contains(files, name) {
			t.Fatalf("file %s of the retired run is still on disk", name)
		}
	}
	checkRange(t, s, 0, 200, "v")
	if st := s.Stats(); st.PinnedRuns != 0 {
		t.Fatalf("PinnedRuns %d after every release", st.PinnedRuns)
	}
}

// refusingListener's jobs refuse every relabel, as a listener whose sealed
// order a relabel would break does.
type refusingListener struct {
	NopListener
	infos []CompactionInfo
}

type refusingJob struct {
	NopJob
	info CompactionInfo
}

func (l *refusingListener) BeginJob(info CompactionInfo) Job {
	l.infos = append(l.infos, info)
	return refusingJob{info: info}
}

func (j refusingJob) Verify(int) error {
	if j.info.Relabel {
		return fmt.Errorf("%w: not this one", ErrRelabelRefused)
	}
	return nil
}

// TestRefusedRelabelMerges: a relabel the listener refuses is merged
// instead, under a new run ID, and counts as the scheduler's compaction.
func TestRefusedRelabelMerges(t *testing.T) {
	mem := vfs.NewMem()
	l := &refusingListener{}
	opts := relabelOpts(mem, 0)
	opts.Listener = l
	s := mustOpen(t, opts)
	defer s.Close()
	putRange(t, s, 0, 200, "v")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before := s.Runs()[0]
	if err := moveDown(s, 1); err != nil {
		t.Fatal(err)
	}
	after := s.Runs()
	if len(after) != 1 || after[0].Level != 2 || after[0].ID <= before.ID {
		t.Fatalf("after the refused relabel %v, want one new run at level 2", after)
	}
	if st := s.Stats(); st.Moves != 0 || st.Compactions != 1 || st.BackgroundCompactions != 1 {
		t.Fatalf("%d moves, %d compactions (%d background), want one background compaction", st.Moves, st.Compactions, st.BackgroundCompactions)
	}
	if n := len(l.infos); n != 3 || !l.infos[1].Relabel || l.infos[2].Relabel {
		t.Fatalf("jobs %+v, want a flush, the refused relabel and a merge", l.infos)
	}
	checkRange(t, s, 0, 200, "v")
}
