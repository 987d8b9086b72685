package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"elsm/internal/lsm"
	"elsm/internal/record"
	"elsm/internal/sstable"
	"elsm/internal/vfs"
)

// TestPartedCompactionMatchesSerial: key-range parts are invisible. The same
// paced writes — every flush the explicit one, maintenance drained after it —
// through a store whose jobs run as one part (one worker token) and a store
// whose jobs run in up to four must leave byte-identical tables, the same
// disk bytes and the same run digests. With scattered keys, flushes into a
// level 1 of several tables are cut at its tables, the large ones into a
// level 1 of one table at the memtable's quantiles (TestSplitBounds pins the
// choice); with a few hot keys whose every version is kept, a key's versions
// span several tables, so the tables a job is cut at open inside a key and
// the later part seeks back into the table before.
func TestPartedCompactionMatchesSerial(t *testing.T) {
	scattered := func(step int, rnd *rand.Rand) []BatchOp {
		n := 40
		if step%4 == 3 {
			n = 700
		}
		var ops []BatchOp
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key%05d", rnd.Intn(3000))
			if i == 0 {
				key = "key01500" // one version a step
			}
			op := BatchOp{Key: []byte(key), Value: []byte(fmt.Sprintf("s%d-i%d-%s", step, i, strings.Repeat("v", rnd.Intn(40))))}
			if i > 0 && rnd.Intn(10) == 0 {
				op = BatchOp{Key: op.Key, Delete: true}
			}
			ops = append(ops, op)
		}
		return ops
	}
	hot := func(step int, rnd *rand.Rand) []BatchOp {
		var ops []BatchOp
		for k := 0; k < 6; k++ {
			ops = append(ops, BatchOp{Key: []byte(fmt.Sprintf("hot%d", k)), Value: []byte(fmt.Sprintf("s%d-%s", step, strings.Repeat("v", 20+rnd.Intn(40))))})
		}
		return ops
	}
	for _, tc := range []struct {
		name   string
		keep   int
		steps  int
		writes func(step int, rnd *rand.Rand) []BatchOp
		// spans requires a table that opens inside a key.
		spans bool
	}{
		{"scattered keys, every version kept", 0, 24, scattered, false},
		{"scattered keys, the newest kept", 1, 24, scattered, false},
		{"hot keys over several tables each", 0, 40, hot, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				fss    [2]*vfs.MemFS
				stores [2]*Store
			)
			for i, tokens := range []int{1, 4} {
				fss[i] = vfs.NewMem()
				cfg := smallCfg(fss[i])
				cfg.MemtableSize = 1 << 20 // no write fills it: every flush is the paced one
				cfg.KeepVersions = tc.keep
				cfg.Workers = lsm.NewWorkerPool(tokens)
				stores[i] = mustOpenP2(t, cfg)
				defer stores[i].Close()
			}
			rnd := rand.New(rand.NewSource(39))
			for step := 0; step < tc.steps; step++ {
				ops := tc.writes(step, rnd)
				for _, s := range stores {
					if _, err := s.Commit(nil, ops); err != nil {
						t.Fatal(err)
					}
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := s.Engine().WaitMaintenance(); err != nil {
						t.Fatal(err)
					}
				}
			}

			serial, parted := stores[0].Engine(), stores[1].Engine()
			if st := parted.Stats(); st.Flushes != uint64(tc.steps) || st.Compactions < 2 {
				t.Fatalf("%d flushes and %d compactions; the test wants %d and several", st.Flushes, st.Compactions, tc.steps)
			}
			want, got := tableFiles(t, fss[0]), tableFiles(t, fss[1])
			if len(got) != len(want) {
				t.Fatalf("%d tables in parts, %d serially", len(got), len(want))
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Fatalf("table %s differs between the parted and the serial store", name)
				}
			}
			if parted.DiskBytes() != serial.DiskBytes() {
				t.Fatalf("DiskBytes %d in parts, %d serially", parted.DiskBytes(), serial.DiskBytes())
			}
			if !maps.Equal(stores[1].snapshotDigests(), stores[0].snapshotDigests()) {
				t.Fatalf("run digests differ:\nparted %v\nserial %v", stores[1].snapshotDigests(), stores[0].snapshotDigests())
			}
			if tc.spans && !keySpansTables(t, fss[1]) {
				t.Fatal("no table opens inside a key: the hot keys did not span tables")
			}
		})
	}
}

// tableFiles reads every table file of fs.
func tableFiles(t *testing.T, fs *vfs.MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		if strings.HasSuffix(name, ".sst") {
			data, err := vfs.ReadFile(fs, name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = data
		}
	}
	return out
}

// manifestRuns parses the version sealed on fs by a store a test opened on
// it: per level, per run, its tables' entries.
func manifestRuns(t *testing.T, fs vfs.FS) (root map[string]any, levels [][][]map[string]any) {
	t.Helper()
	key, ok := sealKeys.Load(fs)
	if !ok {
		t.Fatal("no store was opened on the file system")
	}
	if err := json.Unmarshal(unsealState(t, key.([32]byte), fs).Version, &root); err != nil {
		t.Fatal(err)
	}
	for _, lv := range root["levels"].([]any) {
		var runs [][]map[string]any
		for _, r := range asSlice(lv) {
			var files []map[string]any
			for _, f := range r.(map[string]any)["files"].([]any) {
				files = append(files, f.(map[string]any))
			}
			runs = append(runs, files)
		}
		levels = append(levels, runs)
	}
	return root, levels
}

func asSlice(v any) []any {
	s, _ := v.([]any)
	return s
}

// keySpansTables reports whether some run of fs has a table whose first key
// is the table before's last, both read from the tables.
func keySpansTables(t *testing.T, fs vfs.FS) bool {
	_, levels := manifestRuns(t, fs)
	for _, runs := range levels {
		for _, files := range runs {
			var last []byte
			for i, file := range files {
				first, largest := tableEnds(t, fs, uint64(file["file"].(float64)))
				if i > 0 && bytes.Equal(first, last) {
					return true
				}
				last = largest
			}
		}
	}
	return false
}

// tableEnds opens table fileNum of fs and returns its first and last keys.
func tableEnds(t *testing.T, fs vfs.FS, fileNum uint64) (first, last []byte) {
	t.Helper()
	f, err := fs.Open(fmt.Sprintf("%06d.sst", fileNum))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tbl, err := sstable.Open(f, fileNum, &sstable.FileSource{F: f})
	if err != nil {
		t.Fatal(err)
	}
	it := tbl.Iter()
	defer it.Close()
	if it.SeekGE(nil, record.MaxTs); !it.Valid() {
		t.Fatalf("table %d: %v", fileNum, it.Close())
	}
	last, _ = tbl.Largest()
	return bytes.Clone(it.Record().Key), last
}
