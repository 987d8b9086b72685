// Observability integration tests: the instrumentation must see through
// the public API what the engine actually did — histograms fill on the
// hot paths, a forced-slow fsync shows up in the slow-op log with an
// fsync-dominant stage breakdown, and turning instrumentation off leaves
// no observer behind.
package elsm

import (
	"fmt"
	"testing"
	"time"

	"elsm/internal/vfs"
)

// TestObsHistogramsFill drives every instrumented hot path and checks the
// per-shard recorders saw it.
func TestObsHistogramsFill(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.Shards = 2
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 400; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate-key batch lands on ONE shard with len(ops) > 1 — the
	// synchronous multi-op commit that fills commit_e2e. (A cross-shard
	// batch rides per-shard CommitAsync instead and is timed by the
	// router's histogram, checked below.)
	b := s.NewBatch()
	b.Put([]byte("batch-dup"), []byte("v1"))
	b.Put([]byte("batch-dup"), []byte("v2"))
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// 16 distinct keys span both shards: the router times the cross-shard
	// commit end to end.
	wide := s.NewBatch()
	for i := 0; i < 16; i++ {
		wide.Put([]byte(fmt.Sprintf("batch-%02d", i)), []byte("v"))
	}
	if _, err := wide.Commit(); err != nil {
		t.Fatal(err)
	}
	// Everything on disk before the reads: a Get the memtable (or a flush
	// still in flight) answers never reaches verification, and verify_nanos
	// and proof_bytes would depend on how far the background flush got.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("key%04d", i*17))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Scan([]byte("key0000"), []byte("key0400")); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	recs := s.Recorders()
	if len(recs) != 2 {
		t.Fatalf("Recorders() returned %d, want 2", len(recs))
	}
	// Merge shards per canonical name, then require observations on every
	// path the workload exercised.
	merged := map[string]uint64{}
	for _, r := range recs {
		for _, nh := range r.Hists() {
			merged[nh.Name] += nh.Hist.Snapshot().Count
		}
	}
	for _, name := range []string{
		"put_e2e_nanos", "commit_e2e_nanos", "get_e2e_nanos",
		"scan_chunk_nanos", "commit_queue_wait_nanos", "commit_append_nanos",
		"commit_fsync_nanos", "commit_apply_nanos", "commit_resolve_nanos",
		"compact_snapshot_nanos", "compact_merge_nanos", "compact_install_nanos",
		"verify_nanos", "proof_bytes",
	} {
		if merged[name] == 0 {
			t.Errorf("histogram %s recorded nothing", name)
		}
	}
	o := s.Observer()
	if o == nil {
		t.Fatal("Observer() nil on an instrumented store")
	}
	if o.RouterBatch.Snapshot().Count == 0 {
		t.Error("router batch histogram recorded nothing for a cross-shard commit")
	}
}

// TestObsDisableInstrumentation checks the opt-out: no observer, no
// recorders, and the store still works.
func TestObsDisableInstrumentation(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.DisableInstrumentation = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Observer() != nil || s.Recorders() != nil {
		t.Fatal("DisableInstrumentation left an observer behind")
	}
	if _, err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Get([]byte("k")); err != nil || !res.Found {
		t.Fatalf("get after put: %v found=%v", err, res.Found)
	}
}

// TestObsSlowOpCapture forces a slow fsync (vfs.NewSlowSync) under a low
// slow-op threshold and requires the commit group to surface in the
// slow-op log with the fsync stage dominating the breakdown — the exact
// diagnosis loop the slow-op log exists for.
func TestObsSlowOpCapture(t *testing.T) {
	opts := testOptions(ModeP2)
	opts.FS = vfs.NewSlowSync(vfs.NewMem(), 5*time.Millisecond)
	opts.MemtableSize = 1 << 20 // keep flushes (also sync-delayed) off the path
	opts.SlowOpThreshold = time.Millisecond
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		if _, err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	slow := s.Observer().SlowOps()
	if len(slow) == 0 {
		t.Fatal("no slow ops captured despite 5ms fsyncs under a 1ms threshold")
	}
	checked := false
	for _, tr := range slow {
		if tr.Kind != "commit-group" {
			continue
		}
		checked = true
		if !tr.Slow {
			t.Errorf("slow-op trace not marked Slow: %+v", tr)
		}
		stages := map[string]uint64{}
		for _, st := range tr.Stages {
			stages[st.Name] = st.Nanos
		}
		fsync, ok := stages["fsync"]
		if !ok {
			t.Fatalf("commit-group trace missing fsync stage: %+v", tr.Stages)
		}
		for name, nanos := range stages {
			if name != "fsync" && nanos > fsync {
				t.Errorf("stage %s (%dns) exceeds fsync (%dns); breakdown should be fsync-dominant: %+v",
					name, nanos, fsync, tr.Stages)
			}
		}
		if fsync < uint64(4*time.Millisecond) {
			t.Errorf("fsync stage %dns, want ≥ ~5ms (the injected delay)", fsync)
		}
	}
	if !checked {
		t.Fatalf("no commit-group trace among %d slow ops", len(slow))
	}
}
