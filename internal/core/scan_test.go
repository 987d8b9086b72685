package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

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

// version is one write of the sequential model.
type version struct {
	ts    uint64
	value []byte // nil for a delete
}

// model is the sequential specification of SCAN: per key, every version in
// commit order.
type model map[string][]version

// scan returns what ScanAt(start, end, tsq) must: per key in order, the
// newest version ≤ tsq, if it is not a delete.
func (m model) scan(start, end string, tsq uint64) []Result {
	var keys []string
	for k := range m {
		if k >= start && k <= end {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []Result
	for _, k := range keys {
		vs := m[k]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].ts <= tsq {
				if vs[i].value != nil {
					out = append(out, Result{Key: []byte(k), Value: vs[i].value, Ts: vs[i].ts, Found: true})
				}
				break
			}
		}
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
func randomStore(t *testing.T, s *Store, rng *rand.Rand, runs int) (model, []uint64) {
	t.Helper()
	m := model{}
	var stamps []uint64
	key := func(i int) string { return fmt.Sprintf("key%03d", i) }
	write := func(k string) {
		var ts uint64
		var err error
		var val []byte
		if rng.Intn(5) == 0 {
			ts, err = Delete(s, []byte(k))
		} else {
			val = []byte(fmt.Sprintf("v%d-%s", len(stamps), k))
			ts, err = Put(s, []byte(k), val)
		}
		if err != nil {
			t.Fatal(err)
		}
		m[k] = append(m[k], version{ts: ts, value: val})
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
					want := m.scan(start, end, tsq)
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
			want := m.scan("key", "kez", record.MaxTs)

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
// before): a change that brings back a copy per row, a key-indexed map or a
// materialized proof trips it without the benchmark gate.
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
	if allocs := testing.AllocsPerRun(50, scan); allocs > 3*rows+60 {
		t.Fatalf("a warm verified %d-row Scan allocates %.0f times, want ≤ %d", rows, allocs, 3*rows+60)
	} else {
		t.Logf("a warm verified %d-row Scan allocates %.0f times", rows, allocs)
	}
}
