package lsm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

func shipped(firstTs uint64, keys ...string) []record.Record {
	recs := make([]record.Record, len(keys))
	for i, k := range keys {
		recs[i] = record.Record{Key: []byte(k), Ts: firstTs + uint64(i), Kind: record.KindSet, Value: []byte("v-" + k)}
	}
	return recs
}

// TestApplyReplicatedRidesThePipeline: a shipped group is a commit group
// like any other — counted, republished to the sink, applied at the
// timestamps it arrived with — except that the append stage checks those
// timestamps instead of assigning them. A group that does not extend the
// frontier, or carries a kind no writer produces, is refused alone and
// changes nothing; a failed WAL fsync refuses every later group until reopen.
func TestApplyReplicatedRidesThePipeline(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	s := mustOpen(t, smallOpts(fs))
	defer s.Close()
	var republished []ReplicatedGroup
	s.SetGroupSink(func(g ReplicatedGroup) { republished = append(republished, g) })

	if err := s.ApplyReplicated(shipped(1, "a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if got := s.AppliedTs(); got != 3 {
		t.Fatalf("applied frontier %d after a three-record group, want 3", got)
	}
	if rec, ok, err := s.Get([]byte("b"), record.MaxTs); err != nil || !ok || rec.Ts != 2 || string(rec.Value) != "v-b" {
		t.Fatalf("get b = %+v %v %v", rec, ok, err)
	}
	if st := s.Stats(); st.GroupCommits != 1 || st.GroupedRecords != 3 || st.WALSyncs != 1 {
		t.Fatalf("a shipped group counted as %d groups, %d records, %d fsyncs", st.GroupCommits, st.GroupedRecords, st.WALSyncs)
	}
	if len(republished) != 1 || republished[0].PrevTs != 0 || republished[0].LastTs != 3 {
		t.Fatalf("sink saw %+v", republished)
	}

	badKind := shipped(4, "e")
	badKind[0].Kind = 9
	for name, recs := range map[string][]record.Record{
		"a gap": shipped(5, "e"), "a replay": shipped(3, "e"), "a bad kind": badKind,
	} {
		if err := s.ApplyReplicated(recs); !errors.Is(err, ErrReplicationGap) {
			t.Fatalf("%s: %v, want ErrReplicationGap", name, err)
		}
	}
	if err := s.Sync(nil); err != nil {
		t.Fatalf("barrier after refused groups: %v", err)
	}
	if got := s.AppliedTs(); got != 3 || len(republished) != 1 {
		t.Fatalf("refused groups moved the frontier to %d (sink saw %d groups)", got, len(republished))
	}
	// A local commit takes the next timestamp; the group after it must too.
	if ts, err := putKV(s, []byte("d"), []byte("local")); err != nil || ts != 4 {
		t.Fatalf("local commit after shipped groups: ts %d, %v", ts, err)
	}
	if err := s.ApplyReplicated(shipped(5, "e")); err != nil {
		t.Fatal(err)
	}

	fs.ArmFilter(vfs.OpSync, "wal*")
	fs.Arm(0)
	if err := s.ApplyReplicated(shipped(6, "f")); !errors.Is(err, ErrWALSyncFailed) {
		t.Fatalf("group with a failing fsync: %v, want ErrWALSyncFailed", err)
	}
	fs.Disarm()
	if err := s.ApplyReplicated(shipped(7, "g")); !errors.Is(err, ErrWALSyncFailed) {
		t.Fatalf("group after a failed fsync: %v, want the sticky ErrWALSyncFailed", err)
	}
	if _, ok, _ := s.Get([]byte("f"), record.MaxTs); ok {
		t.Fatal("a group whose fsync failed became readable")
	}
}

// TestShippedGroupsSkipTheBatchingWindow: a shipped group is the group its
// leader formed, and the tailer sends the next one only after this one is
// durable, so nothing could join it during a window. A follower configured
// like its leader must not pay the window per group and fall behind.
func TestShippedGroupsSkipTheBatchingWindow(t *testing.T) {
	const groups, window = 10, 150 * time.Millisecond
	opts := smallOpts(vfs.NewMem())
	opts.GroupCommitWindow = window
	s := mustOpen(t, opts)
	defer s.Close()
	start := time.Now()
	for i := uint64(1); i <= groups; i++ {
		if err := s.ApplyReplicated(shipped(i, fmt.Sprintf("k%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > groups*window/3 {
		t.Fatalf("%d shipped groups took %v with a %v window: the window was slept per group", groups, took, window)
	}
	if got := s.AppliedTs(); got != groups {
		t.Fatalf("applied frontier %d, want %d", got, groups)
	}
}
