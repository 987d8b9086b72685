package core

import (
	"encoding/json"
	"errors"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sgx"
	"elsm/internal/vfs"
)

// TestAttackManifestReordersRuns: a read takes the first version of a key it
// finds, visiting L1 to the deepest level and, within a level, the newest
// run first — the order the untrusted MANIFEST lists the runs in. A host
// that swaps two levels, or two runs of one level, keeps every run and
// every byte of it, yet makes an overwritten value the first one found. The
// seal binds each run's level and recovery holds the manifest's order to it:
// each reorder must fail the reopen with an auth error, and the untouched
// manifest must reopen to the newest value. The last case first lowers the
// manifest's next run ID, which the seal does not cover, so that under it
// a newer run would take an ID below an older one's at the same level and
// the reordered level would look newest-first.
func TestAttackManifestReordersRuns(t *testing.T) {
	swapL1 := func(root map[string]any) {
		l1 := root["levels"].([]any)[1].([]any)
		l1[0], l1[1] = l1[1], l1[0]
	}
	for _, tc := range []struct {
		name string
		// shape leaves k=old below k=new and returns the store to close.
		shape func(t *testing.T, s *Store, fs vfs.FS) *Store
		forge func(root map[string]any)
	}{
		{"swap-levels", func(t *testing.T, s *Store, _ vfs.FS) *Store {
			putFlush(t, s, "old")
			if err := s.Compact(1); err != nil { // old: level 2
				t.Fatal(err)
			}
			putFlush(t, s, "new") // new: level 1
			return s
		}, func(root map[string]any) {
			levels := root["levels"].([]any)
			levels[1], levels[2] = levels[2], levels[1]
		}},
		{"swap-L1-runs", func(t *testing.T, s *Store, _ vfs.FS) *Store {
			putFlush(t, s, "old")
			putFlush(t, s, "new") // level 1 lists new, then old
			return s
		}, swapL1},
		{"lowered-next-run", func(t *testing.T, s *Store, fs vfs.FS) *Store {
			putFlush(t, s, "a")                  // run 1
			if err := s.Compact(1); err != nil { // run 2, level 2; run 1 is gone
				t.Fatal(err)
			}
			putFlush(t, s, "old") // run 3, level 1
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			editManifest(t, fs, func(root map[string]any) { root["nextRun"] = 1 })
			r, err := reopen(s, fs)
			if err != nil {
				t.Fatal(err)
			}
			putFlush(t, r, "new") // level 1 lists new, then old
			return r
		}, swapL1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMem()
			s := mustOpenP2(t, forgeCfg(fs))
			s = tc.shape(t, s, fs)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			honest, err := vfs.ReadFile(fs, "MANIFEST")
			if err != nil {
				t.Fatal(err)
			}
			editManifest(t, fs, tc.forge)
			if r, err := reopen(s, fs); !errors.Is(err, ErrAuthFailed) {
				if err == nil {
					res, gerr := Get(r, []byte("k"))
					r.Close()
					t.Fatalf("reordered manifest accepted: Get(k) = %q, %v", res.Value, gerr)
				}
				t.Fatalf("reordered manifest: %v, want ErrAuthFailed", err)
			}

			if err := vfs.WriteFile(fs, "MANIFEST", honest); err != nil {
				t.Fatal(err)
			}
			r, err := reopen(s, fs)
			if err != nil {
				t.Fatalf("honest manifest refused: %v", err)
			}
			defer r.Close()
			if res, err := Get(r, []byte("k")); err != nil || string(res.Value) != "new" {
				t.Fatalf("Get(k) = %q, %v; want new", res.Value, err)
			}
		})
	}
}

// putFlush writes k=value and flushes it into a run of its own.
func putFlush(t *testing.T, s *Store, value string) {
	t.Helper()
	if _, err := Put(s, []byte("k"), []byte(value)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// editManifest rewrites the MANIFEST through its JSON form.
func editManifest(t *testing.T, fs vfs.FS, edit func(root map[string]any)) {
	t.Helper()
	data, err := vfs.ReadFile(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	var root map[string]any
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatal(err)
	}
	edit(root)
	if data, err = json.Marshal(root); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "MANIFEST", data); err != nil {
		t.Fatal(err)
	}
}

// TestOutputRunIDIsChecked: the enclave takes a job's output run ID from the
// engine, whose next ID comes from the untrusted MANIFEST. Verify refuses an
// ID a live run holds and an ID below a run already at the output level,
// either of which would let the sealed forest's ID order disagree with the
// order the runs were written in, and accepts an ID above them.
func TestOutputRunIDIsChecked(t *testing.T) {
	s := mustOpenP2(t, forgeCfg(vfs.NewMem()))
	defer s.Close()
	putFlush(t, s, "a")                  // run 1
	if err := s.Compact(1); err != nil { // run 2, level 2
		t.Fatal(err)
	}
	putFlush(t, s, "b") // run 3, level 1
	l := &authListener{c: s}
	rec := record.Record{Key: []byte("k"), Ts: 1 << 40, Kind: record.KindSet, Value: []byte("v")}
	for _, tc := range []struct {
		id     uint64
		level  int
		accept bool
	}{
		{3, 3, false}, // a live run's ID, even at another level
		{2, 1, false},
		{1, 1, false}, // new, but below run 3 at level 1
		{1, 3, true},  // level 3 holds nothing
		{4, 1, true},
	} {
		j := l.BeginJob(lsm.CompactionInfo{OutputRun: tc.id, MemtableInput: true, BlockSize: 512}).(*compactionJob)
		j.Filter(0, lsm.MemtableRunID, rec, false)
		err := j.Verify(tc.level)
		j.Abort()
		if tc.accept && err != nil || !tc.accept && !errors.Is(err, ErrAuthFailed) {
			t.Errorf("output run %d at level %d: Verify = %v, want accepted %v", tc.id, tc.level, err, tc.accept)
		}
	}
}

// TestParentFormatSealIsRefused: a sealed state whose run digests carry no
// level, as the format before levels wrote it, is refused as a format the
// store does not read, not as a rollback.
func TestParentFormatSealIsRefused(t *testing.T) {
	fs := vfs.NewMem()
	s := mustOpenP2(t, forgeCfg(fs))
	putFlush(t, s, "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sealed, err := vfs.ReadFile(fs, trustedStateName)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := sgx.Unseal(s.sealKey, sealed)
	if err != nil {
		t.Fatal(err)
	}
	var st trustedState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	for id, d := range st.Digests {
		d.Level = 0
		st.Digests[id] = d
	}
	if blob, err = json.Marshal(&st); err != nil {
		t.Fatal(err)
	}
	if sealed, err = sgx.Seal(s.sealKey, blob); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, trustedStateName, sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(s, fs); !errors.Is(err, ErrOldStateFormat) || errors.Is(err, ErrAuthFailed) {
		t.Fatalf("a seal without run levels: %v, want ErrOldStateFormat alone", err)
	}
}
