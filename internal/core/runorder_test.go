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

// TestOutputRunIDIsChecked: the enclave takes a job's output run ID from the
// engine, which derives the next ID from the version. Verify refuses an
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
