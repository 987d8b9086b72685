package lsm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// trackListener checks the scheduler's two concurrency invariants from the
// listener's vantage point: jobs whose level claims overlap never run
// concurrently, and the Verify → Committed install window is single-slot
// across all jobs.
type trackListener struct {
	NopListener
	mu           sync.Mutex
	active       map[*trackJob]struct{} // jobs begun and not yet ended
	installDepth int
	maxInstall   int
	maxActive    int
	overlaps     []string
	aborts       int
}

// trackJob is one job as trackListener sees it.
type trackJob struct {
	NopJob
	l      *trackListener
	run    uint64
	pair   [2]int // claimed [lo, hi] level pair
	staged bool   // inside the install window
}

func newTrackListener() *trackListener {
	return &trackListener{active: make(map[*trackJob]struct{})}
}

// claimPair mirrors jobClaims: a flush owns {memtable, L1}, a compaction of
// Ln owns {Ln, Ln+1}.
func claimPair(info CompactionInfo) [2]int {
	if info.MemtableInput {
		return [2]int{0, 1}
	}
	return [2]int{info.OutputLevel - 1, info.OutputLevel}
}

func (l *trackListener) BeginJob(info CompactionInfo) Job {
	if info.BulkLoad {
		return NopJob{} // exclusive job, runs with the queue fenced
	}
	j := &trackJob{l: l, run: info.OutputRun, pair: claimPair(info)}
	l.mu.Lock()
	defer l.mu.Unlock()
	for other := range l.active {
		if j.pair[0] <= other.pair[1] && other.pair[0] <= j.pair[1] {
			l.overlaps = append(l.overlaps,
				fmt.Sprintf("job %d (levels %v) ran concurrently with job %d (levels %v)",
					j.run, j.pair, other.run, other.pair))
		}
	}
	l.active[j] = struct{}{}
	if n := len(l.active); n > l.maxActive {
		l.maxActive = n
	}
	return j
}

func (j *trackJob) Verify() error {
	l := j.l
	l.mu.Lock()
	defer l.mu.Unlock()
	l.installDepth++
	if l.installDepth > l.maxInstall {
		l.maxInstall = l.installDepth
	}
	j.staged = true
	return nil
}

func (j *trackJob) finishLocked() {
	if j.staged {
		j.l.installDepth--
		j.staged = false
	}
	delete(j.l.active, j)
}

func (j *trackJob) Committed() {
	j.l.mu.Lock()
	defer j.l.mu.Unlock()
	j.finishLocked()
}

func (j *trackJob) Abort() {
	j.l.mu.Lock()
	defer j.l.mu.Unlock()
	j.l.aborts++
	j.finishLocked()
}

// TestParallelJobsDisjointAndInstallsSerialized hammers a 4-worker store
// with concurrent writers, explicit compactions and pinned snapshots, and
// asserts from the listener that (a) no two concurrent jobs ever claimed
// overlapping level pairs, (b) at most one install window was ever open,
// and (c) a snapshot pinned mid-churn reads repeatably.
func TestParallelJobsDisjointAndInstallsSerialized(t *testing.T) {
	tl := newTrackListener()
	opts := bgOpts(nil)
	opts.MaxLevels = 6
	opts.CompactionWorkers = 4
	opts.Listener = tl
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, perWriter = 4, 800
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-key%05d", w, i)
				if _, err := putKV(s, []byte(key), []byte(fmt.Sprintf("val%05d", i))); err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
				if i%97 == 0 {
					if _, err := delKV(s, []byte(key)); err != nil {
						t.Errorf("writer %d delete %d: %v", w, i, err)
						return
					}
				}
			}
		}(w)
	}
	// Explicit deep compactions racing the flush-driven cascades.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			for lvl := 1; lvl < opts.MaxLevels-1; lvl++ {
				if err := s.Compact(lvl); err != nil {
					t.Errorf("compact L%d: %v", lvl, err)
					return
				}
			}
		}
	}()
	// A snapshot pinned mid-churn must read the same bytes at the end.
	time.Sleep(10 * time.Millisecond)
	snap := s.AcquireSnapshot()
	defer snap.Release()
	firstRead, _, _, err := snap.ScanChunk([]byte("w0-"), []byte("w0-z"), record.MaxTs, 0)
	if err != nil {
		t.Fatalf("snapshot scan during churn: %v", err)
	}
	wg.Wait()
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}

	tl.mu.Lock()
	overlaps, maxInstall, maxActive, aborts := tl.overlaps, tl.maxInstall, tl.maxActive, tl.aborts
	tl.mu.Unlock()
	for _, o := range overlaps {
		t.Errorf("level-claim overlap: %s", o)
	}
	if maxInstall > 1 {
		t.Fatalf("install window not serialized: %d concurrent installs", maxInstall)
	}
	if aborts != 0 {
		t.Fatalf("%d jobs aborted under a healthy store", aborts)
	}
	t.Logf("max concurrent jobs observed: %d", maxActive)

	// The pinned snapshot re-reads bit for bit despite all the churn.
	secondRead, _, _, err := snap.ScanChunk([]byte("w0-"), []byte("w0-z"), record.MaxTs, 0)
	if err != nil {
		t.Fatalf("snapshot scan after churn: %v", err)
	}
	if len(firstRead) != len(secondRead) {
		t.Fatalf("snapshot drifted: %d records then, %d now", len(firstRead), len(secondRead))
	}
	for i := range firstRead {
		if !recordsEqual(firstRead[i], secondRead[i]) {
			t.Fatalf("snapshot record %d drifted: %+v -> %+v", i, firstRead[i], secondRead[i])
		}
	}

	// Every surviving key is readable with its final value.
	for w := 0; w < writers; w++ {
		for _, i := range []int{1, perWriter / 2, perWriter - 1} {
			key := fmt.Sprintf("w%d-key%05d", w, i)
			rec, ok, err := s.Get([]byte(key), record.MaxTs)
			if err != nil || !ok || string(rec.Value) != fmt.Sprintf("val%05d", i) {
				t.Fatalf("key %s: ok=%v err=%v val=%q", key, ok, err, rec.Value)
			}
		}
	}
}

func recordsEqual(a, b record.Record) bool {
	return a.Ts == b.Ts && a.Kind == b.Kind &&
		string(a.Key) == string(b.Key) && string(a.Value) == string(b.Value)
}

// TestParallelMatchesSerialScans runs one deterministic workload into a
// 4-worker store and a 1-worker (serial maintenance) store and requires the
// final contents of both to match a plain map model of the same operations
// record for record — parallel maintenance must be invisible to readers,
// and the reference depends on no engine mode.
func TestParallelMatchesSerialScans(t *testing.T) {
	const nOps = 2000
	opKey := func(i int) string { return fmt.Sprintf("key%05d", i%700) } // overwrites exercise dedup
	opVal := func(i int) string { return fmt.Sprintf("val%06d", i) }
	opDeletes := func(i int) bool { return i%13 == 0 }

	run := func(workers int) []record.Record {
		t.Helper()
		opts := bgOpts(nil)
		opts.MaxLevels = 6
		opts.CompactionWorkers = workers
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < nOps; i++ {
			if opDeletes(i) {
				_, err = delKV(s, []byte(opKey(i)))
			} else {
				_, err = putKV(s, []byte(opKey(i)), []byte(opVal(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.WaitMaintenance(); err != nil {
			t.Fatal(err)
		}
		recs, err := scanAll(s, []byte("key"), []byte("kez"))
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}

	// The model: one writer, so operation i commits at timestamp i+1; the
	// scan returns each live key's newest record in key order.
	live := map[string]record.Record{}
	for i := 0; i < nOps; i++ {
		if opDeletes(i) {
			delete(live, opKey(i))
			continue
		}
		live[opKey(i)] = record.Record{Key: []byte(opKey(i)), Ts: uint64(i + 1), Kind: record.KindSet, Value: []byte(opVal(i))}
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, side := range []struct {
		name    string
		workers int
	}{{"parallel", 4}, {"serial", 1}} {
		got := run(side.workers)
		if len(got) != len(keys) {
			t.Fatalf("%s scan %d records, model %d", side.name, len(got), len(keys))
		}
		for i, k := range keys {
			if !recordsEqual(got[i], live[k]) {
				t.Fatalf("%s record %d diverged from the model: got %+v, want %+v", side.name, i, got[i], live[k])
			}
		}
	}
}

// fastWALFS sends the log files straight to the backing FS and everything
// else (tables, manifest) through the slow wrapper over it.
type fastWALFS struct {
	vfs.FS        // the slow wrapper
	fast   vfs.FS // what it wraps
}

func (f fastWALFS) Create(name string) (vfs.File, error) {
	if strings.HasPrefix(name, "wal") {
		return f.fast.Create(name)
	}
	return f.FS.Create(name)
}

func (f fastWALFS) Open(name string) (vfs.File, error) {
	if strings.HasPrefix(name, "wal") {
		return f.fast.Open(name)
	}
	return f.FS.Open(name)
}

// TestStallAttributionFlushOnly pins the writer-stall bookkeeping: with
// compaction disabled, a stalled writer can only be waiting on flush
// progress, so no stall time may be charged to compaction debt.
func TestStallAttributionFlushOnly(t *testing.T) {
	// Puts stay memory-fast (the log syncs for free); only the flush pays
	// syncs, and one must dwarf the time a writer needs to fill a memtable,
	// also under the race detector on a loaded box: at 2 ms a flush (two
	// syncs plus a now much cheaper merge) sometimes finished first and
	// nobody stalled.
	mem := vfs.NewMem()
	opts := bgOpts(fastWALFS{FS: vfs.NewSlowSync(mem, 10*time.Millisecond), fast: mem})
	opts.DisableCompaction = true
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2000; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), []byte("vvvvvvvv")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FlushStallNanos == 0 {
		t.Fatal("burst over slow storage produced no flush stall")
	}
	if st.CompactionStallNanos != 0 {
		t.Fatalf("stall misattributed: %dns charged to compaction with compaction disabled",
			st.CompactionStallNanos)
	}
}

// gateListener parks the first non-flush compaction in phase 2 until
// released, holding its worker token.
type gateListener struct {
	NopListener
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateListener) BeginJob(info CompactionInfo) Job {
	if !info.MemtableInput {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return NopJob{}
}

// TestStallAttributionCompactionBlocked is the regression test for the
// attribution fix: a writer stalled because compaction debt holds the only
// worker (no flush is running) must charge its wait to CompactionStallNanos.
func TestStallAttributionCompactionBlocked(t *testing.T) {
	gate := &gateListener{entered: make(chan struct{}), release: make(chan struct{})}
	opts := bgOpts(nil)
	opts.CompactionWorkers = 1 // the gated compaction starves the flush
	opts.Listener = gate
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 300; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("seed%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	compactDone := make(chan error, 1)
	go func() { compactDone <- s.Compact(1) }()
	<-gate.entered // the compaction now owns the only worker token

	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < 600; i++ { // several memtables' worth: must stall
			if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), []byte("vvvvvvvv")); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()

	// Let the writer hit the full-memtable wall while the flush it needs
	// sits queued behind the parked compaction.
	time.Sleep(100 * time.Millisecond)
	close(gate.release)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := <-compactDone; err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CompactionStallNanos == 0 {
		t.Fatal("writer wait behind a parked compaction charged no CompactionStallNanos")
	}
}
