package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"elsm/internal/hashutil"
	"elsm/internal/lsm"
	"elsm/internal/vfs"
)

// TestRelabelIsCheckedAgainstTheSeal: the enclave holds a relabel to its
// sealed forest alone. The run must be sealed one level above the level it
// moves to, or the host is lying; its ID must be above every run at that
// level, or the move is refused with lsm.ErrRelabelRefused and the engine
// merges instead. The forest it stages differs only in the run's level.
func TestRelabelIsCheckedAgainstTheSeal(t *testing.T) {
	digs := map[uint64]runDigest{
		1: {Root: hashutil.Hash{1}, NumLeaves: 3, Level: 1, Filter: hashutil.Hash{11}},
		4: {Root: hashutil.Hash{4}, NumLeaves: 5, Level: 2},
		6: {Root: hashutil.Hash{6}, NumLeaves: 7, Level: 1, Filter: hashutil.Hash{16}},
	}
	for _, tc := range []struct {
		id    uint64
		level int
		want  error
	}{
		{6, 2, nil}, // in front of run 4
		{4, 3, nil}, // level 3 holds nothing
		{1, 2, lsm.ErrRelabelRefused},
		{6, 3, ErrAuthFailed}, // sealed at level 1
		{4, 2, ErrAuthFailed}, // sealed at level 2 already
		{9, 2, ErrAuthFailed}, // sealed nowhere
	} {
		next, err := relabeled(digs, tc.id, tc.level)
		if tc.want != nil {
			if !errors.Is(err, tc.want) || tc.want == lsm.ErrRelabelRefused && errors.Is(err, ErrAuthFailed) {
				t.Errorf("relabel of run %d to level %d: %v, want %v", tc.id, tc.level, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("relabel of run %d to level %d: %v", tc.id, tc.level, err)
			continue
		}
		want := digs[tc.id]
		want.Level = tc.level
		if len(next) != len(digs) || next[tc.id] != want {
			t.Errorf("relabel of run %d to level %d stages %v", tc.id, tc.level, next)
		}
		for id, d := range digs {
			if id != tc.id && next[id] != d {
				t.Errorf("relabel of run %d changed run %d: %v → %v", tc.id, id, d, next[id])
			}
		}
		if digs[tc.id].Level == tc.level {
			t.Fatal("relabeled wrote into the forest it was given")
		}
	}
}

// TestRelabelKeepsPinnedReaders: readers of a snapshot taken before a
// relabel go on verifying the run at its old level, through its old trusted
// state, while the move installs beside them; the new state shares the run's
// key filter, and a reopen finds the run sealed at its new level.
func TestRelabelKeepsPinnedReaders(t *testing.T) {
	fs := vfs.NewMem()
	cfg := forgeCfg(fs)
	s := mustOpenP2(t, cfg)
	const keys = 200
	for i := 0; i < keys; i++ {
		if _, err := Put(s, key(i), fmt.Appendf(nil, "v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopened under level targets a tenth of the ones it was built under,
	// the run is over its level's: the first event moves it down.
	cfg.LevelBase /= 10
	s = reopenWith(t, s, cfg)
	defer func() { s.Close() }()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := s.Engine().AcquireSnapshot()
	oldRun := before.Runs()[0]
	old := oldRun.Trust.(*trustedRun)
	oldDigest := old.digest

	read := func(r Reader) error {
		for i := 0; i < keys; i += 7 {
			res, err := Get(r, key(i))
			if err != nil {
				return err
			}
			if want := fmt.Sprintf("v%d", i); !res.Found || string(res.Value) != want {
				return fmt.Errorf("Get(%s) = %q, want %q", key(i), res.Value, want)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if err := read(snap); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	if err := s.Engine().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("reader of the snapshot taken before the move: %v", err)
	}
	if st := s.Engine().Stats(); st.Moves != 1 || st.Compactions != 0 {
		t.Fatalf("%d moves, %d compactions: want the run moved by relabel", st.Moves, st.Compactions)
	}
	after := s.Engine().AcquireSnapshot()
	newRun := after.Runs()[0]
	moved := newRun.Trust.(*trustedRun)
	switch {
	case newRun.ID != oldRun.ID || newRun.Level != oldRun.Level+1:
		t.Fatalf("run %d at level %d became run %d at level %d", oldRun.ID, oldRun.Level, newRun.ID, newRun.Level)
	case moved == old || old.digest != oldDigest:
		t.Fatal("the relabel changed the trusted state the old version carries")
	case moved.filter == nil || moved.filter != old.filter:
		t.Fatal("the moved run's trusted state does not share its key filter")
	case moved.digest.Level != newRun.Level || moved.digest.Root != old.digest.Root || moved.digest.Filter != old.digest.Filter:
		t.Fatalf("moved digest %+v, old %+v: want only the level changed", moved.digest, old.digest)
	}
	after.Release()
	before.Release()
	if err := read(snap); err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if err := read(s); err != nil {
		t.Fatal(err)
	}
	s = reopenWith(t, s, cfg)
	if runs := s.Engine().Runs(); len(runs) != 1 || runs[0].Level != newRun.Level {
		t.Fatalf("after a reopen: %v, want the run at level %d", runs, newRun.Level)
	}
	if err := read(s); err != nil {
		t.Fatal(err)
	}
}
