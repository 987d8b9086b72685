package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"elsm/internal/lsm"
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

// manifestRuns parses fs's MANIFEST: per level, per run, its tables' entries.
func manifestRuns(t *testing.T, fs vfs.FS) (root map[string]any, levels [][][]map[string]any) {
	t.Helper()
	data, err := vfs.ReadFile(fs, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &root); err != nil {
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
// is the table before's last.
func keySpansTables(t *testing.T, fs vfs.FS) bool {
	_, levels := manifestRuns(t, fs)
	for _, runs := range levels {
		for _, files := range runs {
			for i := 1; i < len(files); i++ {
				if files[i]["smallest"] == files[i-1]["largest"] {
					return true
				}
			}
		}
	}
	return false
}

// TestAttackPartBoundsMetadata: a job's parts are cut at a table's first
// key, and a part past the first seeks each input by its tables' largest
// keys — metadata the host keeps in the manifest. A host that understates
// the largest key of the table a part starts in makes that part's seek skip
// the table, so its records land in no part: the input check must abort the
// job with ErrCompactionInput and leave the version as it was. A record
// cannot land in two parts through the metadata — both parts cut at the same
// key, whatever it is, and each hasher refuses a key outside its part
// (TestHasherRejectsDisorder) — so a host that moves the first key only
// moves the cut: the job installs, and every key reads back verified.
func TestAttackPartBoundsMetadata(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(prev, split map[string]any)
		abort bool
	}{
		{"largest key understated: the table's records land in no part", func(prev, split map[string]any) {
			split["largest"], split["largestTs"] = prev["largest"], prev["largestTs"]
		}, true},
		{"first key moved into the table before: the cut moves", func(prev, split map[string]any) {
			split["smallest"], split["smallestTs"] = prev["smallest"], prev["smallestTs"]
		}, false},
		{"first key moved past the table's own: the cut moves", func(prev, split map[string]any) {
			split["smallest"], split["smallestTs"] = split["largest"], split["largestTs"]
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMem()
			cfg := smallCfg(fs)
			cfg.MemtableSize, cfg.LevelBase = 1<<20, 1<<30
			cfg.Workers = lsm.NewWorkerPool(2)
			s := mustOpenP2(t, cfg)
			want := map[string]string{}
			load := func(from, step int) {
				for i := from; i < 1200; i += step {
					k, v := fmt.Sprintf("key%05d", i), fmt.Sprintf("value-%05d", i)
					if _, err := Put(s, []byte(k), []byte(v)); err != nil {
						t.Fatal(err)
					}
					want[k] = v
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			load(0, 2)
			if err := s.Compact(1); err != nil { // evens: level 2, the input with the most tables
				t.Fatal(err)
			}
			load(1, 8)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			root, levels := manifestRuns(t, fs)
			l1, l2 := levels[1][0], levels[2][0]
			if len(l2) < 4 || len(l2) <= len(l1) {
				t.Fatalf("set-up: level 2 has %d tables, level 1 %d; want level 2 the larger, of several", len(l2), len(l1))
			}
			split := len(l2) / 2 // where a two-part job over it is cut
			tc.edit(l2[split-1], l2[split])
			data, err := json.Marshal(root)
			if err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFile(fs, "MANIFEST", data); err != nil {
				t.Fatal(err)
			}

			cfg.Platform, cfg.Counter = s.platform, s.counter
			s2 := mustOpenP2(t, cfg)
			defer s2.Close()
			before := s2.Engine().Runs()
			err = s2.Compact(1)
			if tc.abort {
				if !errors.Is(err, ErrCompactionInput) {
					t.Fatalf("compaction over the edited manifest = %v, want ErrCompactionInput", err)
				}
				if after := s2.Engine().Runs(); !slices.Equal(after, before) {
					t.Fatalf("aborted compaction changed the version: %v → %v", before, after)
				}
				return
			}
			if err != nil {
				t.Fatalf("compaction with a moved cut: %v", err)
			}
			for k, v := range want {
				res, err := Get(s2, []byte(k))
				if err != nil || !res.Found || string(res.Value) != v {
					t.Fatalf("%s after the compaction: %q found=%v err=%v, want %q", k, res.Value, res.Found, err, v)
				}
			}
		})
	}
}
