package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"elsm/internal/kvtest/model"
	"elsm/internal/record"
	"elsm/internal/vfs"
)

// scanCfg is a store whose runs are exactly the test's flushes: a memtable
// far larger than any test's data, and every flush a new run of level 1.
func scanCfg(fs vfs.FS) Config {
	cfg := smallCfg(fs)
	cfg.MemtableSize = 8 << 20
	cfg.DisableCompaction = true
	return cfg
}

// modelScan is what ScanAt(start, end, tsq) must return: the model's rows
// as results.
func modelScan(m *model.Model, start, end string, tsq uint64) []Result {
	var out []Result
	for _, rec := range m.Scan([]byte(start), []byte(end), tsq) {
		out = append(out, Result{Key: rec.Key, Value: rec.Value, Ts: rec.Ts, Found: true})
	}
	return out
}

func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) || got[i].Ts != want[i].Ts || !got[i].Found {
			return fmt.Errorf("row %d = %q=%q@%d, want %q=%q@%d", i, got[i].Key, got[i].Value, got[i].Ts, want[i].Key, want[i].Value, want[i].Ts)
		}
	}
	return nil
}

// randomStore fills s with rounds of random puts and deletes over a small
// key space — every round flushed into a run of its own but the last, which
// stays in the memtable together with keys no run has ever seen — and returns
// the model and every commit timestamp.
func randomStore(t *testing.T, s *Store, rng *rand.Rand, runs int) (*model.Model, []uint64) {
	t.Helper()
	m := &model.Model{}
	var stamps []uint64
	key := func(i int) string { return fmt.Sprintf("key%03d", i) }
	write := func(k string) {
		rec := record.Record{Key: []byte(k), Kind: record.KindDelete}
		if rng.Intn(5) != 0 {
			rec.Kind, rec.Value = record.KindSet, []byte(fmt.Sprintf("v%d-%s", len(stamps), k))
		}
		ts, err := s.Commit(nil, []BatchOp{{Key: rec.Key, Value: rec.Value, Delete: rec.Kind == record.KindDelete}})
		if err != nil {
			t.Fatal(err)
		}
		rec.Ts = ts
		m.Put(rec)
		stamps = append(stamps, ts)
	}
	for r := 0; r <= runs; r++ {
		for w := 0; w < 90; w++ {
			write(key(rng.Intn(80))) // repeats within a round: several versions of a key in one run
		}
		if r == runs {
			for i := 0; i < 6; i++ {
				write(fmt.Sprintf("key%03d-mem", rng.Intn(80))) // memtable only
			}
			break
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Engine().Runs()); got != runs {
		t.Fatalf("set-up left %d runs, want %d", got, runs)
	}
	return m, stamps
}

// TestScanMatchesSequentialModel is the differential test of the merged scan:
// over random stores of 3–5 runs plus a memtable — several versions of a key
// in one run and across runs, deletes, keys only the memtable holds — every
// range at every query time, current and historical, streamed in chunks of 1,
// 2, 7 and 512 keys, returns exactly what the sequential model says, the first
// time (cold node cache) and again (warm).
func TestScanMatchesSequentialModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, chunk := range []int{1, 2, 7, 512} {
			t.Run(fmt.Sprintf("seed%d/chunk%d", seed, chunk), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				cfg := scanCfg(nil)
				cfg.IterChunkKeys = chunk
				s := mustOpenP2(t, cfg)
				defer s.Close()
				m, stamps := randomStore(t, s, rng, 3+int(seed)%3)
				for q := 0; q < 60; q++ {
					lo, hi := rng.Intn(90), rng.Intn(90)
					if lo > hi {
						lo, hi = hi, lo
					}
					start, end := fmt.Sprintf("key%03d", lo), fmt.Sprintf("key%03d~", hi)
					tsq := uint64(record.MaxTs)
					switch rng.Intn(4) {
					case 0:
						tsq = stamps[rng.Intn(len(stamps))]
					case 1:
						tsq = stamps[rng.Intn(len(stamps))] - 1
					}
					want := modelScan(m, start, end, tsq)
					for _, temp := range []string{"cold", "warm"} {
						got, err := ScanAll(s.IterAt(nil, []byte(start), []byte(end), tsq))
						if err == nil {
							err = sameResults(got, want)
						}
						if err != nil {
							t.Fatalf("%s ScanAt(%q, %q, %d): %v", temp, start, end, tsq, err)
						}
					}
				}
			})
		}
	}
}

// hostFS is the untrusted host's file system under a store: it remembers
// every buffer a table-file read filled while recording is on and how often
// each block was read, so a test can play the host that rewrites what it has
// handed over.
type hostFS struct {
	*vfs.MemFS
	mu        sync.Mutex
	recording bool
	handed    [][]byte
	reads     map[string]int // "file@offset" → reads
}

type hostFile struct {
	vfs.File
	fs   *hostFS
	name string
}

func (fs *hostFS) wrap(f vfs.File, name string, err error) (vfs.File, error) {
	if err != nil || !strings.HasSuffix(name, ".sst") {
		return f, err
	}
	return &hostFile{File: f, fs: fs, name: name}, nil
}

func (fs *hostFS) Create(name string) (vfs.File, error) {
	f, err := fs.MemFS.Create(name)
	return fs.wrap(f, name, err)
}

func (fs *hostFS) Open(name string) (vfs.File, error) {
	f, err := fs.MemFS.Open(name)
	return fs.wrap(f, name, err)
}

func (f *hostFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.mu.Lock()
	if f.fs.recording {
		f.fs.handed = append(f.fs.handed, p)
		f.fs.reads[fmt.Sprintf("%s@%d", f.name, off)]++
	}
	f.fs.mu.Unlock()
	return n, err
}

// tables returns the live bytes of every table file: what an mmap read sees.
func (fs *hostFS) tables(t *testing.T) map[string][]byte {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			f, err := fs.MemFS.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = f.Bytes()
		}
	}
	return out
}

// TestScanCopiesBeforeItVerifies plays the host that rewrites every byte it
// has handed over the moment the enclave starts verifying — every read buffer
// without mmap, the table files themselves with it. A chunk compares,
// resolves, hashes and returns only what it copied, so each chunk must still
// verify and the whole scan must equal the oracle; and without mmap, where
// block requests are visible as file reads, no block is requested twice
// within one chunk.
func TestScanCopiesBeforeItVerifies(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mmap), func(t *testing.T) {
			fs := &hostFS{MemFS: vfs.NewMem(), reads: map[string]int{}}
			cfg := scanCfg(fs)
			cfg.MmapReads = mmap
			s := mustOpenP2(t, cfg)
			defer s.Close()
			m, _ := randomStore(t, s, rand.New(rand.NewSource(5)), 4)
			want := modelScan(m, "key", "kez", record.MaxTs)

			v, err := s.acquireView()
			if err != nil {
				t.Fatal(err)
			}
			defer v.release()
			live := fs.tables(t)
			pristine := map[string][]byte{}
			for name, data := range live {
				pristine[name] = bytes.Clone(data)
			}
			scribbled := false
			s.scanTamper = func(*runSpan) {
				if scribbled {
					return
				}
				scribbled = true
				for _, b := range fs.handed {
					for i := range b {
						b[i] = 0xff
					}
				}
				if mmap {
					for _, data := range live {
						for i := range data {
							data[i] = 0xff
						}
					}
				}
			}
			fs.recording = true
			var got []Result
			start, end := []byte("key"), []byte("kez")
			for chunks, cursor := 0, start; ; chunks++ {
				out, next, done, err := v.scanChunk(cursor, end, record.MaxTs, 7)
				if err != nil {
					t.Fatalf("chunk %d from %q: %v", chunks, cursor, err)
				}
				if !scribbled {
					t.Fatal("the host never got to rewrite anything")
				}
				for block, n := range fs.reads {
					if n > 1 {
						t.Fatalf("chunk %d read block %s %d times", chunks, block, n)
					}
				}
				if !mmap && len(fs.reads) == 0 {
					t.Fatal("no block read was observed")
				}
				for name, data := range live {
					copy(data, pristine[name])
				}
				fs.handed, fs.reads, scribbled = nil, map[string]int{}, false
				got = append(got, out...)
				if done {
					break
				}
				cursor = next
			}
			if err := sameResults(got, want); err != nil {
				t.Fatal(err)
			}

			// Rewritten BEFORE it is handed over, the same garbage is the
			// host's forgery and nothing else.
			s.scanTamper = nil
			for _, data := range live {
				for i := range data {
					data[i] = 0xff
				}
			}
			if out, err := Scan(s, start, end); !errors.Is(err, ErrAuthFailed) {
				t.Fatalf("Scan of overwritten tables = %d rows, %v; want ErrAuthFailed", len(out), err)
			}
		})
	}
}

// TestReadFaultIsNotTampering: a table read that fails is an I/O error
// wherever it happens — under a verified Scan, under a stream that has
// already delivered rows, under a compaction — and never a verification
// failure: a run cut short by a failed read looks exactly like an omission
// to the verifier, which must not be asked.
func TestReadFaultIsNotTampering(t *testing.T) {
	open := func(t *testing.T) (*Store, *vfs.FaultFS) {
		ffs := vfs.NewFault(vfs.NewMem())
		cfg := scanCfg(ffs)
		cfg.IterChunkKeys = 32
		s := mustOpenP2(t, cfg)
		for run := 0; run < 2; run++ {
			for i := run; i < 400; i += 2 - run { // evens, then every key again
				if _, err := Put(s, []byte(fmt.Sprintf("key%05d", i)), []byte("value")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		ffs.ArmFilter(vfs.OpReadAt, "*.sst")
		return s, ffs
	}
	ioError := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, vfs.ErrInjected) || errors.Is(err, ErrAuthFailed) {
			t.Fatalf("%s = %v; want the injected I/O error, not an authentication failure", what, err)
		}
	}
	// The injected fault kills the disk for good, so a read that fails in
	// one run is followed by failures everywhere: sweeping the budget puts the
	// FIRST failure on every read a scan makes in turn, the last run's last
	// block included, until a scan gets through untouched.
	t.Run("scan", func(t *testing.T) {
		s, ffs := open(t)
		defer s.Close()
		for budget := 0; ; budget++ {
			ffs.Arm(budget)
			out, err := Scan(s, []byte("key"), []byte("kez"))
			ffs.Disarm()
			if err == nil {
				if len(out) != 400 || budget == 0 {
					t.Fatalf("Scan with %d reads allowed: %d rows", budget, len(out))
				}
				break
			}
			ioError(t, fmt.Sprintf("Scan with the read after %d failing", budget), err)
			if out != nil {
				t.Fatalf("failed Scan returned %d rows", len(out))
			}
		}
	})
	t.Run("iter mid-stream", func(t *testing.T) {
		s, ffs := open(t)
		defer s.Close()
		for budget := 0; ; budget++ {
			it := s.IterAt(nil, []byte("key"), []byte("kez"), record.MaxTs)
			rows := 0
			for it.Next() {
				if rows++; rows == 40 { // inside the second chunk, the third prefetched or in flight
					ffs.Arm(budget)
				}
			}
			err := it.Close()
			ffs.Disarm()
			if err == nil {
				if rows != 400 || budget == 0 {
					t.Fatalf("stream with %d more reads allowed: %d rows", budget, rows)
				}
				break
			}
			ioError(t, fmt.Sprintf("Close of the stream interrupted after %d more reads", budget), err)
			if rows < 40 || rows >= 400 {
				t.Fatalf("interrupted stream delivered %d rows", rows)
			}
		}
	})
	t.Run("compact", func(t *testing.T) {
		s, ffs := open(t)
		defer s.Close()
		ffs.Arm(0)
		ioError(t, "Compact", s.Compact(1))
		ffs.Disarm()
		if out, err := Scan(s, []byte("key"), []byte("kez")); err != nil || len(out) != 400 {
			t.Fatalf("Scan after the failed compaction: %d rows, %v", len(out), err)
		}
	})
}

// TestScanAllocBudget pins the allocation cost of a verified 50-row Scan on
// a warm store (every block in the cache, every node of the range verified
// before, the scratch pooled) at what the caller keeps: the iterator, the
// Result slice and one block holding the rows' keys and values. Streamed
// over k chunks, each chunk adds its Result slice, its block and the
// prefetch goroutine that fetched it, and the stream its prefetch channel
// (two objects: the channel and its buffer): at most 3k + 3. A change that brings back a copy per row, a per-chunk
// arena, a heap-allocated view, a key-indexed map or a materialized proof
// trips it without the benchmark gate.
func TestScanAllocBudget(t *testing.T) {
	s := scanBenchStore(t, 4000, 64<<20)
	defer s.Close()
	const rows = 50
	start, end := twoRunKey(1000), twoRunKey(1000+rows-1)
	scan := func() {
		if out, err := Scan(s, start, end); err != nil || len(out) != rows {
			t.Errorf("Scan = %d rows, %v", len(out), err)
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(50, scan); allocs > 3 {
		t.Fatalf("a warm verified %d-row Scan allocates %.0f times, want ≤ 3", rows, allocs)
	} else {
		t.Logf("a warm verified %d-row Scan allocates %.0f times", rows, allocs)
	}

	const k = 5
	s.iterChunkKeys = rows / k
	stream := func() {
		it := s.IterAt(nil, start, end, record.MaxTs)
		n := 0
		for it.Next() {
			n++
		}
		if err := it.Close(); err != nil || n != rows {
			t.Errorf("Iter = %d rows, %v", n, err)
		}
	}
	stream()
	if allocs := testing.AllocsPerRun(50, stream); allocs > 3*k+3 {
		t.Fatalf("a warm verified %d-row Iter over %d chunks allocates %.0f times, want ≤ %d", rows, k, allocs, 3*k+3)
	} else {
		t.Logf("a warm verified %d-row Iter over %d chunks allocates %.0f times", rows, k, allocs)
	}
}

// TestResultsOutlivePooledMemory keeps the rows of one Scan and of a Snapshot
// iterator's first chunk, then runs 200 scans and streams of other ranges
// concurrently, the kept iterator's prefetch in flight: the kept rows must not
// change by a byte. Results that aliased the reused arena, the memtable
// cursors' scratch or a stream's pooled bounds would be overwritten here.
func TestResultsOutlivePooledMemory(t *testing.T) {
	cfg := scanCfg(nil)
	cfg.IterChunkKeys = 16
	s := mustOpenP2(t, cfg)
	defer s.Close()
	const n = 800
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	for run := 0; run < 3; run++ {
		for i := run; i < n; i += run + 1 {
			if _, err := Put(s, key(i), []byte(fmt.Sprintf("value-%d-of-%05d", run, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 { // and some rows only the memtable holds
		if _, err := Put(s, key(i), []byte(fmt.Sprintf("value-m-of-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	clone := func(rows []Result) []Result {
		out := make([]Result, len(rows))
		for i, r := range rows {
			out[i] = Result{Key: bytes.Clone(r.Key), Value: bytes.Clone(r.Value), Ts: r.Ts, Found: r.Found}
		}
		return out
	}

	// Warm scratch first: the kept rows then land in arena memory that later
	// chunks reuse, not in arrays a growing arena has left behind.
	if _, err := Scan(s, key(0), key(n)); err != nil {
		t.Fatal(err)
	}
	kept, err := Scan(s, key(100), key(115))
	if err != nil || len(kept) != 16 {
		t.Fatalf("Scan = %d rows, %v", len(kept), err)
	}
	wantScan := clone(kept)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	it := snap.IterAt(nil, key(200), key(400), record.MaxTs)
	var first []Result
	for len(first) < cfg.IterChunkKeys && it.Next() {
		first = append(first, it.Result())
	}
	wantFirst := clone(first)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				lo := (w*50 + q) * 3 % (n - 40)
				if q%2 == 0 {
					if _, err := Scan(s, key(lo), key(lo+30)); err != nil {
						t.Error(err)
					}
					continue
				}
				it := s.IterAt(nil, key(lo), key(lo+40), record.MaxTs)
				for it.Next() {
				}
				if err := it.Close(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sameResults(kept, wantScan); err != nil {
		t.Errorf("the kept Scan changed: %v", err)
	}
	if err := sameResults(first, wantFirst); err != nil {
		t.Errorf("the kept first chunk changed: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScratchFreeListsStayBounded: Open charges the enclave for
// scanScratchSlots scan scratches of at most scanScratchBytes and
// readScratchSlots read scratches of at most readScratchBytes. A chunk whose
// rows outgrow the scan bound drops its scratch instead of pooling it, a
// stream over outsized bounds drops its read scratch, and however many
// streams are open at once, no more are pooled than there are slots.
func TestScratchFreeListsStayBounded(t *testing.T) {
	s := mustOpenP2(t, scanCfg(nil))
	defer s.Close()
	const rows = 512
	value := make([]byte, 1<<10)
	for i := 0; i < rows; i++ {
		if _, err := Put(s, twoRunKey(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	drainSlots(s.scanPool)
	if out, err := Scan(s, twoRunKey(0), twoRunKey(rows-1)); err != nil || len(out) != rows {
		t.Fatalf("Scan = %d rows, %v", len(out), err)
	}
	if got := len(drainSlots(s.scanPool)); got != 0 {
		t.Fatalf("a %d-row chunk of 1 KiB values left %d scan scratch pooled, want it dropped", rows, got)
	}
	if _, err := Scan(s, twoRunKey(0), twoRunKey(9)); err != nil {
		t.Fatal(err)
	}
	if got := len(drainSlots(s.scanPool)); got != 1 {
		t.Fatalf("a 10-row chunk left %d scan scratch pooled, want 1", got)
	}

	its := make([]Iterator, 3*readScratchSlots)
	for i := range its {
		start := twoRunKey(i)
		if i == 0 {
			start = append(start, make([]byte, readScratchBytes)...) // outsized bounds
		}
		its[i] = s.IterAt(nil, start, twoRunKey(rows), record.MaxTs)
		if !its[i].Next() {
			t.Fatalf("stream %d is empty: %v", i, its[i].Err())
		}
	}
	for _, it := range its {
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reads := drainSlots(s.readPool)
	if got := len(reads); got > readScratchSlots {
		t.Fatalf("%d read scratches pooled, more than the %d slots", got, readScratchSlots)
	}
	for _, g := range reads {
		if cap(g.buf) > readScratchBytes {
			t.Fatalf("a pooled read scratch holds %d bytes, more than %d", cap(g.buf), readScratchBytes)
		}
	}
	for _, sc := range drainSlots(s.scanPool) {
		if n := sc.release(); n > scanScratchBytes {
			t.Fatalf("a pooled scan scratch holds %d bytes, more than %d", n, scanScratchBytes)
		}
	}
}

// drainSlots takes every scratch the slots hold.
func drainSlots[T any](slots scratchSlots[T]) []*T {
	var out []*T
	for x := slots.get(0); x != nil; x = slots.get(0) {
		out = append(out, x)
	}
	return out
}
