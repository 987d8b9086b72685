package lsm

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"elsm/internal/record"
	"elsm/internal/vfs"
)

// bgOpts forces frequent flushes/compactions with little data.
func bgOpts(fs vfs.FS) Options {
	return Options{
		FS:            fs,
		MemtableSize:  4 << 10,
		BlockSize:     512,
		TableFileSize: 4 << 10,
		LevelBase:     16 << 10,
		MaxLevels:     5,
		KeepVersions:  1,
	}
}

// TestBackgroundFlushInstalls checks the freeze → schedule → install
// pipeline: a write burst over the memtable limit must produce on-disk
// runs without any explicit Flush, and every record must stay readable
// throughout.
func TestBackgroundFlushInstalls(t *testing.T) {
	s, err := Open(bgOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[string]string{}
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("key%05d", i)
		val := fmt.Sprintf("val%05d", i)
		if _, err := putKV(s, []byte(key), []byte(val)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		want[key] = val
	}
	if err := s.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Fatal("no background flush installed")
	}
	if len(s.Runs()) == 0 {
		t.Fatal("no runs on disk after background flushes")
	}
	for key, val := range want {
		rec, ok, err := s.Get([]byte(key), record.MaxTs)
		if err != nil || !ok || string(rec.Value) != val {
			t.Fatalf("key %s: ok=%v err=%v val=%q", key, ok, err, rec.Value)
		}
	}
}

// TestPinnedRunSurvivesCompaction checks the refcount lifecycle: a reader
// that pinned a run keeps it addressable and its files on disk across a
// compaction that retires it; the files are deleted only when the pin
// drops.
func TestPinnedRunSurvivesCompaction(t *testing.T) {
	fs := vfs.NewMem()
	s, err := Open(bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 400; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), []byte("pin-me")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := s.AcquireSnapshot()
	if len(snap.Runs()) == 0 {
		t.Fatal("no runs to pin")
	}
	target := snap.Runs()[0]
	if got := s.Stats().PinnedRuns; got == 0 {
		t.Fatal("pin not reflected in PinnedRuns")
	}

	// Force the pinned run out of the version.
	if err := s.Compact(target.Level); err != nil {
		t.Fatal(err)
	}
	stillLive := false
	for _, r := range s.Runs() {
		if r.ID == target.ID {
			stillLive = true
		}
	}
	if stillLive {
		t.Fatal("compaction did not retire the pinned run")
	}

	// The retired run must remain readable through the pin.
	lk, err := snap.LookupRun(0, []byte("key00007"), record.MaxTs)
	if err != nil {
		t.Fatalf("lookup on pinned retired run: %v", err)
	}
	if !lk.Found || string(lk.Rec.Value) != "pin-me" {
		t.Fatalf("pinned retired run returned wrong data: %+v", lk)
	}
	sc, err := snap.ScanRunChunk(0, []byte("key00000"), []byte("key00020"), 0)
	if err != nil || len(sc.Records) == 0 {
		t.Fatalf("scan on pinned retired run: %v (%d records)", err, len(sc.Records))
	}

	// Dropping the pin deletes the files.
	before, _ := fs.List("0") // sst files are zero-padded numbers
	snap.Release()
	after, _ := fs.List("0")
	if len(after) >= len(before) {
		t.Fatalf("releasing the last pin deleted no files: %d -> %d", len(before), len(after))
	}
	if got := s.Stats().PinnedRuns; got != 0 {
		t.Fatalf("PinnedRuns gauge not drained: %d", got)
	}
}

// TestAdaptiveGroupCommitWindow checks GroupCommitWindow =
// AutoGroupCommitWindow: the resolved window must track the observed fsync
// latency (half the EWMA) and stay under the cap.
func TestAdaptiveGroupCommitWindow(t *testing.T) {
	delay := 400 * time.Microsecond
	fs := vfs.NewSlowSync(vfs.NewMem(), delay)
	opts := bgOpts(fs)
	opts.MemtableSize = 1 << 20 // no flushes: isolate the commit path
	opts.GroupCommitWindow = AutoGroupCommitWindow
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 16; i++ {
		if _, err := putKV(s, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.FsyncEWMANanos == 0 {
		t.Fatal("fsync EWMA not observed")
	}
	if st.GroupCommitWindowNanos == 0 {
		t.Fatal("auto window resolved to zero despite slow fsyncs")
	}
	if got := time.Duration(st.GroupCommitWindowNanos); got > maxAutoCommitWindow {
		t.Fatalf("auto window %v exceeds cap %v", got, maxAutoCommitWindow)
	}
	// Half of a ≥400µs EWMA should be at least ~100µs.
	if st.GroupCommitWindowNanos < uint64((delay / 4).Nanoseconds()) {
		t.Fatalf("auto window %v implausibly small for %v fsyncs",
			time.Duration(st.GroupCommitWindowNanos), delay)
	}
}

// TestFixedWindowStillResolves pins the non-adaptive path: a configured
// window is reported verbatim.
func TestFixedWindowStillResolves(t *testing.T) {
	opts := bgOpts(nil)
	opts.GroupCommitWindow = 123 * time.Microsecond
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().GroupCommitWindowNanos; got != uint64((123 * time.Microsecond).Nanoseconds()) {
		t.Fatalf("fixed window misreported: %d", got)
	}
}

// TestCloseDrainsInFlightFlush closes the store right after a write burst
// that scheduled a background flush: Close must drain the job (manifest
// and digests consistent), and a reopen must recover every record.
func TestCloseDrainsInFlightFlush(t *testing.T) {
	fs := vfs.NewMem()
	s, err := Open(bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key%05d", i)
		if _, err := putKV(s, []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		want[key] = true
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(bgOpts(fs))
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer s2.Close()
	for key := range want {
		if _, ok, err := s2.Get([]byte(key), record.MaxTs); err != nil || !ok {
			t.Fatalf("key %s lost across close/reopen: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestBackgroundFlushFailureFailsStop arms the fault injector so a
// background flush dies mid-rewrite: the store must surface the failure on
// subsequent commits instead of buffering writes it can never persist, and
// recovery on the surviving bytes must serve every acknowledged record
// (the frozen WAL preserved them).
func TestBackgroundFlushFailureFailsStop(t *testing.T) {
	mem := vfs.NewMem()
	ffs := vfs.NewFault(mem)
	s, err := Open(bgOpts(ffs))
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string]bool{}
	// Let the store settle once so the fault lands in flush machinery, not
	// the first WAL append.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key%05d", i)
		if _, err := putKV(s, []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		acked[key] = true
	}
	ffs.Arm(30)
	var failed bool
	for i := 50; i < 4000 && !failed; i++ {
		key := fmt.Sprintf("key%05d", i)
		if _, err := putKV(s, []byte(key), []byte("v")); err != nil {
			failed = true
			break
		}
		acked[key] = true
	}
	if !failed {
		t.Fatal("fault never surfaced on the commit path")
	}
	ffs.Disarm()
	// "Crash": abandon without Close, reopen on the surviving bytes.
	s2, err := Open(bgOpts(mem))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	for key := range acked {
		if _, ok, err := s2.Get([]byte(key), record.MaxTs); err != nil || !ok {
			t.Fatalf("acked key %s lost after mid-flush crash: ok=%v err=%v", key, ok, err)
		}
	}
}

// TestMaintenanceEntryPointsRace drives the three synchronous maintenance
// entry points — Flush, which freezes and waits, and Compact and BulkLoad,
// which queue a request — from several goroutines at once beside writers, first against each other
// and then against Close. Every call must return (nil, ErrClosed, the sticky
// background error or BulkLoad's refusal of a non-empty store), none may
// hang, no frozen memtable may be left behind, and every acknowledged write
// must be readable — after the Close race, from the reopened store.
func TestMaintenanceEntryPointsRace(t *testing.T) {
	fs := vfs.NewMem()
	s, err := Open(bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	allowed := func(err error) bool {
		if err == nil || errors.Is(err, ErrClosed) || strings.Contains(err.Error(), "bulk load requires an empty store") {
			return true
		}
		s.mu.RLock()
		bg := s.bgErr
		s.mu.RUnlock()
		return bg != nil && errors.Is(err, bg)
	}
	bulk := []record.Record{{Key: []byte("bulk"), Ts: 1, Kind: record.KindSet, Value: []byte("v")}}

	// race runs writers and maintenance callers until the writers are done,
	// calling during() once everything is in flight, and returns the keys
	// whose Put was acknowledged.
	race := func(round string, during func()) map[string]bool {
		t.Helper()
		var wg sync.WaitGroup
		var mu sync.Mutex
		acked := map[string]bool{}
		stop := make(chan struct{})
		var writers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; i < 400; i++ {
					key := fmt.Sprintf("%s-w%d-%05d", round, w, i)
					_, err := putKV(s, []byte(key), []byte("vvvvvvvv"))
					if err != nil {
						if !allowed(err) {
							t.Errorf("Put: %v", err)
						}
						return
					}
					mu.Lock()
					acked[key] = true
					mu.Unlock()
				}
			}(w)
		}
		calls := []func() error{
			s.Flush,
			s.Flush,
			func() error { return s.Compact(1) },
			func() error { return s.Compact(2) },
			func() error { return s.BulkLoad(bulk) },
		}
		for _, call := range calls {
			wg.Add(1)
			go func(call func() error) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := call(); !allowed(err) {
						t.Errorf("maintenance call: %v", err)
						return
					} else if errors.Is(err, ErrClosed) {
						return
					}
				}
			}(call)
		}
		done := make(chan struct{})
		go func() {
			during()
			writers.Wait()
			close(stop)
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: maintenance calls hung\n%s", round, buf[:runtime.Stack(buf, true)])
		}
		return acked
	}
	noFrozen := func(round string) {
		t.Helper()
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.frozen != nil {
			t.Fatalf("%s: a frozen memtable was left behind", round)
		}
	}
	readable := func(st *Store, round string, acked map[string]bool) {
		t.Helper()
		for key := range acked {
			if rec, ok, err := st.Get([]byte(key), record.MaxTs); err != nil || !ok || string(rec.Value) != "vvvvvvvv" {
				t.Fatalf("%s: acknowledged key %s: ok=%v err=%v", round, key, ok, err)
			}
		}
	}

	first := race("each-other", func() {})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	noFrozen("each-other")
	readable(s, "each-other", first)

	second := race("close", func() {
		time.Sleep(5 * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	noFrozen("close")

	s2, err := Open(bgOpts(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	readable(s2, "each-other (reopened)", first)
	readable(s2, "close (reopened)", second)
}

// lifecycleListener records how each job it was handed ended, and rejects
// Verify when told to.
type lifecycleListener struct {
	NopListener
	mu     sync.Mutex
	reject error
	jobs   []*lifecycleJob
	// onAbort runs in every Abort, which the driver calls before it cleans
	// up: a FaultFS stays dead once tripped, and healing it here turns the
	// injected fault into a transient one — the case in which the cleanup
	// can, and so must, remove what the job wrote.
	onAbort func()
}

type lifecycleJob struct {
	NopJob
	l                             *lifecycleListener
	installed, committed, aborted int
}

func (l *lifecycleListener) BeginJob(CompactionInfo) Job {
	l.mu.Lock()
	defer l.mu.Unlock()
	j := &lifecycleJob{l: l}
	l.jobs = append(l.jobs, j)
	return j
}

// last returns how the most recently begun job ended.
func (l *lifecycleListener) last() (installed, committed, aborted int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	j := l.jobs[len(l.jobs)-1]
	return j.installed, j.committed, j.aborted
}

func (j *lifecycleJob) count(n *int) {
	j.l.mu.Lock()
	*n++
	j.l.mu.Unlock()
}

func (j *lifecycleJob) Verify() error {
	j.l.mu.Lock()
	defer j.l.mu.Unlock()
	return j.l.reject
}
func (j *lifecycleJob) Installed() { j.count(&j.installed) }
func (j *lifecycleJob) Committed() { j.count(&j.committed) }
func (j *lifecycleJob) Abort() {
	j.count(&j.aborted)
	j.l.onAbort()
}

func tableFiles(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			out = append(out, name)
		}
	}
	return out
}

// TestJobAbortMatrix fails each kind of maintenance job at each point the
// driver can fail — an output table's write, the listener's Verify, the
// manifest write — and checks the abort leaves no trace: the version, the
// table files and the run pins are what they were, the job saw exactly one
// Abort and neither Installed nor Committed, a failed flush fail-stops the
// store while a failed explicit Compact/BulkLoad only returns its error, and
// a later job of the same kind still installs.
func TestJobAbortMatrix(t *testing.T) {
	put := func(t *testing.T, s *Store, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if _, err := putKV(s, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("val%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var loadRecs []record.Record
	for i := 0; i < 300; i++ {
		loadRecs = append(loadRecs, record.Record{
			Key: []byte(fmt.Sprintf("key%05d", i)), Ts: uint64(i + 1), Kind: record.KindSet,
			Value: []byte(fmt.Sprintf("val%05d", i)),
		})
	}
	kinds := []struct {
		name   string
		setup  func(t *testing.T, s *Store) // leaves the job something to do
		run    func(s *Store) error
		sticky bool // the failure fail-stops the store
	}{
		{"flush", func(t *testing.T, s *Store) {
			put(t, s, 0, 200)
			if err := s.Flush(); err != nil { // a level-1 run: the flush has an input to pin
				t.Fatal(err)
			}
			put(t, s, 100, 300)
		}, (*Store).Flush, true},
		{"compact", func(t *testing.T, s *Store) {
			put(t, s, 0, 300)
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}, func(s *Store) error { return s.Compact(1) }, false},
		{"bulkload", func(*testing.T, *Store) {},
			func(s *Store) error { return s.BulkLoad(loadRecs) }, false},
	}
	rejection := errors.New("listener says no")
	faults := []struct {
		name   string
		inject func(ffs *vfs.FaultFS, l *lifecycleListener)
	}{
		{"table-write", func(ffs *vfs.FaultFS, _ *lifecycleListener) {
			ffs.ArmFilter(vfs.OpCreate, "*.sst")
			ffs.Arm(0)
		}},
		{"verify", func(_ *vfs.FaultFS, l *lifecycleListener) {
			l.mu.Lock()
			l.reject = rejection
			l.mu.Unlock()
		}},
		{"manifest-write", func(ffs *vfs.FaultFS, _ *lifecycleListener) {
			ffs.ArmFilter(vfs.OpAll, "MANIFEST*")
			ffs.Arm(0)
		}},
	}
	for _, kind := range kinds {
		for _, fault := range faults {
			kind, fault := kind, fault
			t.Run(kind.name+"/"+fault.name, func(t *testing.T) {
				mem := vfs.NewMem()
				ffs := vfs.NewFault(mem)
				l := &lifecycleListener{onAbort: ffs.Disarm}
				opts := smallOpts(ffs)
				opts.Listener = l
				opts.MemtableSize = 1 << 20 // nothing freezes or compacts on its own
				opts.LevelBase = 1 << 30
				s := mustOpen(t, opts)
				defer func() { s.Close() }()
				kind.setup(t, s)

				runs, files, pinned := s.Runs(), tableFiles(t, mem), s.Stats().PinnedRuns
				fault.inject(ffs, l)
				err := kind.run(s)
				ffs.ArmFilter(vfs.OpAll, "")
				l.mu.Lock()
				l.reject = nil
				l.mu.Unlock()

				switch {
				case err == nil:
					t.Fatal("the job succeeded through its injected fault")
				case fault.name == "verify" && !(errors.Is(err, ErrAborted) && errors.Is(err, rejection)):
					t.Fatalf("Verify rejection surfaced as %v, want ErrAborted wrapping the listener's error", err)
				case fault.name != "verify" && !errors.Is(err, vfs.ErrInjected):
					t.Fatalf("I/O fault surfaced as %v, want the injected error", err)
				}
				if installed, committed, aborted := l.last(); installed != 0 || committed != 0 || aborted != 1 {
					t.Fatalf("failed job saw Installed×%d Committed×%d Abort×%d, want exactly one Abort", installed, committed, aborted)
				}
				if got := s.Runs(); !reflect.DeepEqual(got, runs) {
					t.Fatalf("version changed by an aborted job: %v → %v", runs, got)
				}
				if got := tableFiles(t, mem); !reflect.DeepEqual(got, files) {
					t.Fatalf("table files changed by an aborted job: %v → %v", files, got)
				}
				if got := s.Stats().PinnedRuns; got != pinned {
					t.Fatalf("PinnedRuns %d after the abort, %d before: the job leaked a pin", got, pinned)
				}

				// A failed flush fail-stops the store (a reopen replays the
				// stranded logs); a failed explicit job only returned its error.
				if kind.sticky {
					if _, err := putKV(s, []byte("after"), []byte("abort")); err == nil {
						t.Fatal("a failed flush left no sticky background error")
					}
					s.Close()
					s = mustOpen(t, opts)
				}
				if err := kind.run(s); err != nil {
					t.Fatalf("job after the aborted one: %v", err)
				}
				if installed, committed, aborted := l.last(); installed != 1 || committed != 1 || aborted != 0 {
					t.Fatalf("later job saw Installed×%d Committed×%d Abort×%d, want one install", installed, committed, aborted)
				}
				if _, err := putKV(s, []byte("after"), []byte("abort")); err != nil {
					t.Fatalf("put after the later job: %v", err)
				}
				for _, i := range []int{0, 150, 299} {
					key, val := fmt.Sprintf("key%05d", i), fmt.Sprintf("val%05d", i)
					if rec, ok, err := s.Get([]byte(key), record.MaxTs); err != nil || !ok || string(rec.Value) != val {
						t.Fatalf("Get(%s) after the later job = %q %v %v", key, rec.Value, ok, err)
					}
				}
			})
		}
	}
}
