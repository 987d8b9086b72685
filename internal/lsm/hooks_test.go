package lsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"elsm/internal/record"
	"elsm/internal/vfs"
	"elsm/internal/wal"
)

// hookLog records the commit hooks in the order they fire.
type hookLog struct {
	NopListener
	mu     sync.Mutex
	events []string
}

func (h *hookLog) OnGroupAppended(recs []record.Record, _ *wal.Tag, _ bool) {
	keys := make([]string, len(recs))
	for i := range recs {
		keys[i] = string(recs[i].Key)
	}
	h.add("appended " + strings.Join(keys, ","))
}

func (h *hookLog) OnGroupSynced(durable bool) { h.add(fmt.Sprintf("synced %v", durable)) }

func (h *hookLog) add(e string) {
	h.mu.Lock()
	h.events = append(h.events, e)
	h.mu.Unlock()
}

// take returns the events so far and forgets them.
func (h *hookLog) take() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := strings.Join(h.events, "; ")
	h.events = nil
	return out
}

// TestCommitHooksContract pins the two commit hooks: every group fires
// OnGroupAppended with its records before its append and then exactly one
// OnGroupSynced with the fsync's outcome, and recovery's one replay fires
// OnGroupAppended per complete group and never OnGroupSynced.
func TestCommitHooksContract(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	log := &hookLog{}
	opts := smallOpts(fs)
	opts.Listener = log
	s := mustOpen(t, opts)
	if got := log.take(); got != "" {
		t.Fatalf("a fresh store replayed %q", got)
	}
	if _, err := s.Commit(nil, []BatchOp{{Key: []byte("a")}, {Key: []byte("b"), Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(nil); err != nil {
		t.Fatal(err)
	}
	if got, want := log.take(), "appended a,b; synced true"; got != want {
		t.Fatalf("a commit and a barrier fired %q, want %q", got, want)
	}
	fs.ArmFilter(vfs.OpSync, "wal*")
	fs.Arm(0)
	if _, err := putKV(s, []byte("c"), nil); !errors.Is(err, ErrWALSyncFailed) {
		t.Fatalf("commit with a failing fsync: %v", err)
	}
	fs.Disarm()
	if got, want := log.take(), "appended c; synced false"; got != want {
		t.Fatalf("a failed fsync fired %q, want %q", got, want)
	}
	s.Close()

	reopened := &hookLog{}
	opts.Listener = reopened
	s = mustOpen(t, opts)
	defer s.Close()
	// The failed fsync's group reached the (in-memory) log, so it replays.
	if got, want := reopened.take(), "appended a,b; appended c"; got != want {
		t.Fatalf("recovery fired %q, want %q", got, want)
	}
}

// TestFailedAppendIsSticky: an append that fails may leave a torn frame in
// the log, so its group is reported as not durable, and it fails every later
// commit until reopen, whose replay truncates the torn tail and keeps what
// came before.
func TestFailedAppendIsSticky(t *testing.T) {
	fs := vfs.NewFault(vfs.NewMem())
	log := &hookLog{}
	opts := smallOpts(fs)
	opts.Listener = log
	s := mustOpen(t, opts)
	if _, err := putKV(s, []byte("kept"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	log.take()
	fs.SetTornWrites(true)
	fs.ArmFilter(vfs.OpAppend, "wal*")
	fs.Arm(0)
	if _, err := putKV(s, []byte("torn"), []byte("a value long enough to tear")); err == nil {
		t.Fatal("a failed append was acknowledged")
	}
	fs.Disarm()
	fs.SetTornWrites(false)
	if got, want := log.take(), "appended torn; synced false"; got != want {
		t.Fatalf("a failed append fired %q, want %q", got, want)
	}
	if _, err := putKV(s, []byte("after"), []byte("v")); !errors.Is(err, ErrWALSyncFailed) {
		t.Fatalf("commit after a failed append: %v, want the sticky ErrWALSyncFailed", err)
	}
	s.Close()

	s = mustOpen(t, opts)
	defer s.Close()
	if _, ok, _ := s.Get([]byte("kept"), record.MaxTs); !ok {
		t.Fatal("recovery lost the group before the torn append")
	}
	if _, ok, _ := s.Get([]byte("torn"), record.MaxTs); ok {
		t.Fatal("the torn append became readable")
	}
	if _, err := putKV(s, []byte("after"), []byte("v")); err != nil {
		t.Fatalf("reopened store refuses writes: %v", err)
	}
}
